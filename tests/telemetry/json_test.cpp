// Tests for the minimal JSON model: exact integer round-trips, escaping,
// ordering, and parse errors.
#include "telemetry/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace lssim {
namespace {

TEST(JsonTest, Uint64RoundTripsExactly) {
  // Counters can exceed the 2^53 double range; the kUint type must keep
  // every bit through dump + parse.
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  Json::Object o;
  o.emplace_back("value", Json(big));
  const std::string text = Json(std::move(o)).dump();
  std::string error;
  const Json parsed = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json* value = parsed.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->type(), Json::Type::kUint);
  EXPECT_EQ(value->as_uint(), big);
}

TEST(JsonTest, NegativeAndFractionalNumbersAreDoubles) {
  std::string error;
  const Json neg = Json::parse("-42", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(neg.type(), Json::Type::kNumber);
  EXPECT_DOUBLE_EQ(neg.as_double(), -42.0);

  const Json frac = Json::parse("2.5e1", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_DOUBLE_EQ(frac.as_double(), 25.0);
}

TEST(JsonTest, ToUintAcceptsOnlyWholeNumbersInRange) {
  const auto parse = [](const char* text) {
    std::string error;
    const Json json = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << text << ": " << error;
    return json;
  };
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t v = 0;
  EXPECT_FALSE(parse("1e30").to_uint(kMax64, &v));
  EXPECT_EQ(parse("1e30").as_uint(), kMax64);  // Saturates; no UB.
  EXPECT_FALSE(parse("-5").to_uint(kMax64, &v));
  EXPECT_FALSE(parse("2.5").to_uint(kMax64, &v));
  EXPECT_FALSE(parse("\"7\"").to_uint(kMax64, &v));
  EXPECT_FALSE(parse("4294967296").to_uint(kMax32, &v));
  ASSERT_TRUE(parse("4294967295").to_uint(kMax32, &v));
  EXPECT_EQ(v, kMax32);
  ASSERT_TRUE(parse("3.0").to_uint(kMax32, &v));
  EXPECT_EQ(v, 3u);
  ASSERT_TRUE(parse("18446744073709551615").to_uint(kMax64, &v));
  EXPECT_EQ(v, kMax64);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json::Object o;
  o.emplace_back("zebra", Json(1));
  o.emplace_back("alpha", Json(2));
  o.emplace_back("mid", Json(3));
  const std::string text = Json(std::move(o)).dump();
  EXPECT_LT(text.find("zebra"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mid"));
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string nasty = "quote \" backslash \\ newline \n tab \t";
  Json::Object o;
  o.emplace_back("s", Json(nasty));
  const std::string text = Json(std::move(o)).dump();
  std::string error;
  const Json parsed = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.find("s")->as_string(), nasty);
}

TEST(JsonTest, UnicodeEscapeParses) {
  std::string error;
  const Json parsed = Json::parse("\"a\\u0041b\"", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.as_string(), "aAb");
}

TEST(JsonTest, NestedStructuresRoundTrip) {
  std::string error;
  const char* text =
      R"({"arr":[1,2,[3,{"k":true}]],"obj":{"n":null,"f":false}})";
  const Json parsed = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json reparsed = Json::parse(parsed.dump(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(reparsed.dump(), parsed.dump());
  const Json* arr = parsed.find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->as_array().size(), 3u);
  EXPECT_TRUE(arr->as_array()[2].as_array()[1].find("k")->as_bool());
}

TEST(JsonTest, PrettyPrintParsesBack) {
  Json::Object o;
  o.emplace_back("a", Json(Json::Array{Json(1), Json(2)}));
  o.emplace_back("b", Json("text"));
  const Json doc{std::move(o)};
  std::string error;
  const Json parsed = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(JsonTest, MalformedInputSetsError) {
  std::string error;
  (void)Json::parse("{\"unterminated\": ", &error);
  EXPECT_FALSE(error.empty());

  error.clear();
  (void)Json::parse("[1, 2,,]", &error);
  EXPECT_FALSE(error.empty());

  error.clear();
  (void)Json::parse("tru", &error);
  EXPECT_FALSE(error.empty());

  // Trailing garbage after a complete value is also an error.
  error.clear();
  (void)Json::parse("{} extra", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(Json(5).find("x"), nullptr);
  EXPECT_EQ(Json("s").find("x"), nullptr);
  Json obj;
  obj.set("x", Json(1));
  EXPECT_NE(obj.find("x"), nullptr);
  EXPECT_EQ(obj.find("y"), nullptr);
}

}  // namespace
}  // namespace lssim

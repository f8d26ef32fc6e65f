// JsonWriter must lay out exactly what the document tree always has: a
// seeded generator drives the same random calls into the streaming writer
// and into a Json tree, and the two texts must be equal at indent 0 and
// 1. The tree's own text is pinned by a digest recorded from the tree
// writer before JsonWriter existed, so the shared layout cannot drift.
#include "telemetry/json_writer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "telemetry/json.hpp"

namespace lssim {
namespace {

// Bytes that exercise every escape path: quote, backslash, the named
// control escapes, \u-escaped control bytes, DEL and UTF-8 (passed
// through), plus plain characters for the fast copy path.
constexpr char kAlphabet[] = {'a',  'Z',    '0',    ' ',    '/',    '"',
                              '\\', '\n',   '\t',   '\r',   '\x01', '\x1f',
                              '\b', '\x7f', '\xc3', '\xa9', 'q',    'x'};

std::string random_string(Rng& rng) {
  std::string s;
  const std::uint64_t len = rng.next_below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    s += kAlphabet[rng.next_below(sizeof(kAlphabet))];
  }
  return s;
}

double special_double(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return 1e300;
    case 5: return std::numeric_limits<double>::denorm_min();
    case 6: return 0.1;
    default: return (rng.next_double() - 0.5) * 1e6;
  }
}

// Emits one random value into `sink` (a JsonWriter or a TreeBuilder).
// Every draw is sequenced through a local so both sinks see the same
// stream of random numbers.
template <typename Sink>
void random_value(Rng& rng, int depth, Sink& sink) {
  // The root is always a container; below depth 4 only scalars.
  const std::uint64_t pick = depth == 0 ? 10 + rng.next_below(3)
                             : depth >= 4 ? rng.next_below(10)
                                          : rng.next_below(13);
  switch (pick) {
    case 0: sink.value(nullptr); break;
    case 1: sink.value(rng.next_bool(0.5)); break;
    case 2: sink.value(std::numeric_limits<std::uint64_t>::max()); break;
    case 3: {
      const std::uint64_t bits = rng.next();
      const std::uint64_t shift = rng.next_below(64);
      sink.value(bits >> shift);
      break;
    }
    case 4: {
      const int magnitude = static_cast<int>(rng.next_below(1000000));
      sink.value(-magnitude - 1);
      break;
    }
    case 5: sink.value(static_cast<std::int64_t>(rng.next())); break;
    case 6: sink.value(static_cast<std::uint32_t>(rng.next())); break;
    case 7: sink.value(special_double(rng)); break;
    case 8: sink.value(static_cast<int>(rng.next_below(100))); break;
    case 9: sink.value(random_string(rng)); break;
    case 10:
    case 11: {
      sink.begin_array();
      const std::uint64_t n = rng.next_below(6);
      for (std::uint64_t i = 0; i < n; ++i) random_value(rng, depth + 1, sink);
      sink.end_array();
      break;
    }
    default: {
      sink.begin_object();
      const std::uint64_t n = rng.next_below(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        sink.key(random_string(rng));
        random_value(rng, depth + 1, sink);
      }
      sink.end_object();
      break;
    }
  }
}

// Builds the Json tree for the same calls the writer receives.
class TreeBuilder {
 public:
  void begin_object() { stack_.push_back({Json(Json::Object{}), {}}); }
  void begin_array() { stack_.push_back({Json(Json::Array{}), {}}); }
  void end_object() { close(); }
  void end_array() { close(); }
  void key(std::string k) { stack_.back().key = std::move(k); }
  template <typename T>
  void value(T v) {
    add(Json(v));
  }
  Json take() { return std::move(root_); }

 private:
  struct Open {
    Json node;
    std::string key;
  };
  void close() {
    Json done = std::move(stack_.back().node);
    stack_.pop_back();
    add(std::move(done));
  }
  void add(Json v) {
    if (stack_.empty()) {
      root_ = std::move(v);
    } else if (stack_.back().node.is_array()) {
      stack_.back().node.as_array().push_back(std::move(v));
    } else {
      stack_.back().node.as_object().emplace_back(stack_.back().key,
                                                  std::move(v));
    }
  }
  std::vector<Open> stack_;
  Json root_;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string stream_random_doc(std::uint64_t seed, int indent) {
  Rng rng(seed);
  std::ostringstream os;
  {
    JsonWriter writer(os, indent);
    random_value(rng, 0, writer);
  }
  return os.str();
}

Json tree_random_doc(std::uint64_t seed) {
  Rng rng(seed);
  TreeBuilder tree;
  random_value(rng, 0, tree);
  return tree.take();
}

constexpr std::uint64_t kDocs = 1000;

TEST(JsonWriterTest, RandomDocumentsMatchTheTreeAtBothIndents) {
  for (std::uint64_t seed = 1; seed <= kDocs; ++seed) {
    const Json tree = tree_random_doc(seed);
    for (const int indent : {0, 1}) {
      ASSERT_EQ(stream_random_doc(seed, indent), tree.dump(indent))
          << "seed " << seed << " indent " << indent;
    }
  }
}

TEST(JsonWriterTest, TreeLayoutMatchesThePreStreamingDigest) {
  // FNV-1a over the same 1000 documents, recorded from the recursive
  // ostream tree writer that JsonWriter replaced.
  std::uint64_t compact = 1469598103934665603ull;
  std::uint64_t pretty = compact;
  for (std::uint64_t seed = 1; seed <= kDocs; ++seed) {
    const Json tree = tree_random_doc(seed);
    compact = fnv1a(compact, tree.dump(0));
    pretty = fnv1a(pretty, tree.dump(1));
  }
  EXPECT_EQ(compact, 0xa9bcc734a35b761aull);
  EXPECT_EQ(pretty, 0x9202d15829625de0ull);
}

TEST(JsonWriterTest, PinnedLayoutAtBothIndents) {
  const auto emit = [](int indent) {
    std::ostringstream os;
    JsonWriter w(os, indent);
    w.begin_object();
    w.member("a", std::uint64_t{1});
    w.member("neg", -3);
    w.key("list");
    w.begin_array();
    w.value(0.5);
    w.begin_object();
    w.end_object();
    w.begin_array();
    w.end_array();
    w.value("q\"\\\n\x01");
    w.end_array();
    w.member("none", nullptr);
    w.end_object();
    w.flush();
    return os.str();
  };
  EXPECT_EQ(emit(0),
            R"({"a":1,"neg":-3,"list":[0.5,{},[],"q\"\\\n\u0001"],"none":null})");
  EXPECT_EQ(emit(1), R"({
 "a": 1,
 "neg": -3,
 "list": [
  0.5,
  {},
  [],
  "q\"\\\n\u0001"
 ],
 "none": null
})");
}

TEST(JsonWriterTest, NumbersAndEscapes) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_array();
    w.value(std::numeric_limits<std::uint64_t>::max());
    w.value(std::numeric_limits<std::int64_t>::min());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(0.1);
    w.value(std::string_view("\t\r\x1f\x7f", 4));
    w.end_array();
  }
  EXPECT_EQ(os.str(),
            "[18446744073709551615,-9.2233720368547758e+18,null,null,"
            "0.10000000000000001,\"\\t\\r\\u001f\x7f\"]");
}

TEST(JsonWriterTest, LargeDocumentsFlushInChunksAndStayWhole) {
  // Far past the 64 KiB chunk: the stream must see every byte, in order.
  Json::Array items;
  std::ostringstream os;
  {
    JsonWriter w(os, 1);
    w.begin_array();
    for (std::uint64_t i = 0; i < 20000; ++i) {
      w.value(i);
      items.push_back(Json(i));
    }
    w.end_array();
  }
  EXPECT_GT(os.str().size(), std::size_t{64 * 1024});
  EXPECT_EQ(os.str(), Json(std::move(items)).dump(1));
}

TEST(JsonWriterTest, StringsLongerThanTheBufferStayWhole) {
  // A 100 KiB plain run goes to the stream in one piece, behind the
  // buffered prefix; the escape after it lands in order.
  const std::string run(100 * 1024, 'a');
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_array();
    w.value(run + "\"" + run);
    w.end_array();
  }
  EXPECT_EQ(os.str(), "[\"" + run + "\\\"" + run + "\"]");
}

}  // namespace
}  // namespace lssim

// JsonWriter must lay out exactly what the document tree always has: a
// seeded generator drives the same random calls into the streaming writer
// and into a Json tree, and the two texts must be equal at indent 0 and
// 1. The tree's own text is pinned by a digest recorded from the tree
// writer before JsonWriter existed, so the shared layout cannot drift.
// Records written through a shape must match the same records written
// element by element.
#include "telemetry/json_writer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
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

// --- Record shapes -------------------------------------------------------

// A random record layout: the element calls that write it, with holes at
// random places. Every layout has kHoles holes, and hole i takes the
// i-th member of a RecordValues.
struct RecordValues {
  std::string text;
  std::uint64_t number = 0;
  bool flag = false;
  std::uint64_t other_number = 0;
  std::string other_text;
  std::uint64_t last = 0;
};
constexpr int kHoles = 6;

struct LayoutOp {
  enum Kind {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,
    kText,
    kNumber,
    kHole,
  } kind;
  std::string text = {};  ///< kKey, kText.
  std::uint64_t number = 0;
};

class LayoutBuilder {
 public:
  explicit LayoutBuilder(Rng& rng) : rng_(rng) {}

  std::vector<LayoutOp> build() {
    // The root is a container; holes left over go at its end.
    const bool object = rng_.next_bool(0.5);
    ops_.push_back({object ? LayoutOp::kBeginObject : LayoutOp::kBeginArray});
    children(object, 1);
    while (holes_ < kHoles) {
      if (object) ops_.push_back({LayoutOp::kKey, random_string(rng_)});
      hole();
    }
    ops_.push_back({object ? LayoutOp::kEndObject : LayoutOp::kEndArray});
    return std::move(ops_);
  }

 private:
  void children(bool object, int depth) {
    const std::uint64_t n = rng_.next_below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (object) ops_.push_back({LayoutOp::kKey, random_string(rng_)});
      element(depth);
    }
  }
  void element(int depth) {
    const std::uint64_t pick = rng_.next_below(depth < 3 ? 5 : 3);
    if (pick == 0 && holes_ < kHoles) {
      hole();
    } else if (pick <= 1) {
      ops_.push_back({LayoutOp::kText, random_string(rng_)});
    } else if (pick == 2) {
      const std::uint64_t bits = rng_.next();
      ops_.push_back({LayoutOp::kNumber, {}, bits >> rng_.next_below(64)});
    } else {
      const bool object = pick == 3;
      ops_.push_back({object ? LayoutOp::kBeginObject : LayoutOp::kBeginArray});
      children(object, depth + 1);
      ops_.push_back({object ? LayoutOp::kEndObject : LayoutOp::kEndArray});
    }
  }
  void hole() {
    ops_.push_back({LayoutOp::kHole});
    ++holes_;
  }

  Rng& rng_;
  std::vector<LayoutOp> ops_;
  int holes_ = 0;
};

// Writes the layout through the element calls; `fill(w, i)` writes hole i.
template <typename Fill>
void write_layout(const std::vector<LayoutOp>& ops, JsonWriter& w,
                  const Fill& fill) {
  int hole = 0;
  for (const LayoutOp& op : ops) {
    switch (op.kind) {
      case LayoutOp::kBeginObject: w.begin_object(); break;
      case LayoutOp::kEndObject: w.end_object(); break;
      case LayoutOp::kBeginArray: w.begin_array(); break;
      case LayoutOp::kEndArray: w.end_array(); break;
      case LayoutOp::kKey: w.key(op.text); break;
      case LayoutOp::kText: w.value(std::string_view(op.text)); break;
      case LayoutOp::kNumber: w.value(op.number); break;
      case LayoutOp::kHole: fill(w, hole++); break;
    }
  }
}

void write_values(JsonWriter& w, const RecordValues& v, int hole) {
  switch (hole) {
    case 0: w.value(std::string_view(v.text)); break;
    case 1: w.value(v.number); break;
    case 2: w.value(v.flag); break;
    case 3: w.value(v.other_number); break;
    case 4: w.value(std::string_view(v.other_text)); break;
    default: w.value(v.last); break;
  }
}

std::uint64_t random_hole_number(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint64_t>::max();
    default: return rng.next() >> rng.next_below(64);
  }
}

std::string random_hole_text(Rng& rng) {
  // Now and then a run long enough to fill a good part of the buffer.
  if (rng.next_below(50) == 0) {
    return std::string(rng.next_below(20000), 'L') + random_string(rng);
  }
  return random_string(rng);
}

RecordValues random_values(Rng& rng) {
  RecordValues v;
  v.text = random_hole_text(rng);
  v.number = random_hole_number(rng);
  v.flag = rng.next_bool(0.5);
  v.other_number = random_hole_number(rng);
  v.other_text = random_hole_text(rng);
  v.last = random_hole_number(rng);
  return v;
}

// Where the records go: top-level JSONL lines, the elements of a
// top-level array, or the elements of an array inside an object (the
// Perfetto trace's traceEvents).
enum class Placement { kJsonl, kArray, kNestedArray };

template <typename WriteRecord>
std::string write_records(Placement placement, int indent,
                          std::size_t records,
                          const WriteRecord& write_record) {
  std::ostringstream os;
  JsonWriter w(os, indent);
  if (placement == Placement::kNestedArray) {
    w.begin_object();
    w.member("before", std::uint64_t{7});
    w.key("records");
  }
  if (placement != Placement::kJsonl) w.begin_array();
  for (std::size_t i = 0; i < records; ++i) {
    write_record(w, i);
    if (placement == Placement::kJsonl) w.raw("\n");
  }
  if (placement != Placement::kJsonl) w.end_array();
  if (placement == Placement::kNestedArray) w.end_object();
  w.flush();
  return os.str();
}

TEST(JsonWriterShapeTest, RandomRecordsMatchTheElementCalls) {
  bool crossed_flush = false;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const std::vector<LayoutOp> layout = LayoutBuilder(rng).build();
    // Every tenth layout writes enough records to flush many times.
    const std::size_t count = seed % 10 == 0 ? 1500 : rng.next_below(6);
    std::vector<RecordValues> values;
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(random_values(rng));
    }

    for (const Placement placement :
         {Placement::kJsonl, Placement::kArray, Placement::kNestedArray}) {
      for (const int indent : {0, 1}) {
        const std::string by_element = write_records(
            placement, indent, count,
            [&](JsonWriter& w, std::size_t i) {
              write_layout(layout, w, [&](JsonWriter& e, int hole) {
                write_values(e, values[i], hole);
              });
            });
        std::optional<JsonWriter::Shape> shape;
        const std::string by_shape = write_records(
            placement, indent, count,
            [&](JsonWriter& w, std::size_t i) {
              if (!shape) {  // Built at the depth of the records.
                shape = w.shape([&](JsonWriter& s) {
                  write_layout(layout, s, [](JsonWriter& h, int) {
                    h.value(JsonWriter::kHole);
                  });
                });
                ASSERT_EQ(shape->holes(), std::size_t{kHoles});
              }
              const RecordValues& v = values[i];
              w.record(*shape, std::string_view(v.text), v.number, v.flag,
                       v.other_number, std::string_view(v.other_text),
                       v.last);
            });
        ASSERT_EQ(by_shape, by_element)
            << "seed " << seed << " placement "
            << static_cast<int>(placement) << " indent " << indent;
        crossed_flush |= by_shape.size() > std::size_t{4 * 64 * 1024};
      }
    }
  }
  EXPECT_TRUE(crossed_flush);
}

TEST(JsonWriterShapeTest, PinnedRecordAtBothIndents) {
  const auto emit = [](int indent) {
    std::ostringstream os;
    JsonWriter w(os, indent);
    w.begin_array();
    const JsonWriter::Shape shape = w.shape([](JsonWriter& s) {
      s.begin_object();
      s.member("n", JsonWriter::kHole);
      s.member("k\"", "c");
      s.key("in");
      s.begin_array();
      s.value(JsonWriter::kHole);
      s.value(JsonWriter::kHole);
      s.end_array();
      s.end_object();
    });
    w.record(shape, std::uint64_t{0}, std::string_view("a\n"), true);
    w.record(shape, std::numeric_limits<std::uint64_t>::max(),
             std::string_view(""), false);
    w.end_array();
    w.flush();
    return os.str();
  };
  EXPECT_EQ(emit(0),
            R"([{"n":0,"k\"":"c","in":["a\n",true]},)"
            R"({"n":18446744073709551615,"k\"":"c","in":["",false]}])");
  EXPECT_EQ(emit(1), R"([
 {
  "n": 0,
  "k\"": "c",
  "in": [
   "a\n",
   true
  ]
 },
 {
  "n": 18446744073709551615,
  "k\"": "c",
  "in": [
   "",
   false
  ]
 }
])");
}

}  // namespace
}  // namespace lssim

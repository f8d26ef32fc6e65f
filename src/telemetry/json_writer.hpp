// Streaming JSON writer: the one place that owns JSON layout and
// escaping. `Json::write` walks its document tree into a JsonWriter; the
// bulk exporters (Perfetto trace, audit JSONL) drive one directly, so a
// trace of tens of thousands of events is never built as a tree.
//
// Record shapes. A bulk exporter writes one layout over and over, so it
// renders that layout once with shape(): the ordinary element calls lay
// out the record with a kHole wherever a value varies, and the shape
// keeps the fixed text between the holes (separators, indent, quoted
// keys, constant members). record() then copies the fixed text and
// fills each hole, instead of making a dozen element calls per record.
//
// Layout. `indent` 0 emits a compact single line. `indent` > 0 puts each
// container element on its own line, `indent` spaces deeper per level,
// and writes ": " after a key. Empty containers print as {} and [].
// Unsigned integers print exactly; negative integers and doubles print
// as %.17g, and non-finite numbers as null (JSON has no Inf/NaN).
//
// Output collects in an OutputBlock (sim/output_block.hpp) that goes to
// the stream whenever it fills, on flush() and on destruction; a failed
// write sets the stream's state like any ostream write, for the caller
// to check afterwards. The per-element calls and record() are inline;
// record() costs one short copy and one number or string conversion per
// hole.
#pragma once

#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/output_block.hpp"

namespace lssim {

class JsonWriter {
 public:
  /// Placeholder for a value that varies from record to record; see
  /// shape().
  struct Hole {};
  static constexpr Hole kHole{};

  /// The fixed text of one record, split at its holes: everything from
  /// its opening bracket to its closing one, laid out for one depth and
  /// indent.
  class Shape {
   public:
    /// The number of values record() takes.
    [[nodiscard]] std::size_t holes() const noexcept {
      return pieces_.size() - 1;
    }

   private:
    friend class JsonWriter;
    struct Piece {
      std::size_t offset;
      std::size_t size;
    };
    Shape(std::string_view text, std::size_t depth, std::size_t indent);

    /// The text around the holes, each piece starting on a kChunk
    /// boundary and zero-padded to the next one.
    std::string text_;
    std::vector<Piece> pieces_;
    std::size_t depth_;
    std::size_t indent_;
  };

  explicit JsonWriter(std::ostream& os, int indent = 0);
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() { open('{', true); }
  void end_object() { close('}'); }
  void begin_array() { open('[', false); }
  void end_array() { close(']'); }

  /// Starts an object member; the next call writes its value.
  void key(std::string_view name) {
    begin_element(true);
    string(name);
    put(':');
    if (indent_ > 0) put(' ');
  }

  void value(std::nullptr_t) {
    begin_element(false);
    put("null");
  }
  void value(bool b) {
    begin_element(false);
    fill(b);
  }
  void value(std::uint64_t v) {
    begin_element(false);
    fill(v);
  }
  void value(std::uint32_t v) { value(static_cast<std::uint64_t>(v)); }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::int64_t v) {
    if (v >= 0) {
      value(static_cast<std::uint64_t>(v));
    } else {
      value(static_cast<double>(v));
    }
  }
  void value(double v);
  void value(std::string_view text) {
    begin_element(false);
    string(text);
  }
  void value(const char* text) { value(std::string_view(text)); }
  /// A hole in a record that shape() is rendering. It renders as a NUL
  /// byte, which JSON text never holds unescaped, so the shape splits
  /// there; any other writer would emit the NUL as it is.
  void value(Hole) {
    begin_element(false);
    put('\0');
  }

  /// key(name) followed by value(v).
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// Renders a record's layout for this writer's current depth and
  /// indent: `describe` writes one object or array into the writer it is
  /// given, through the element calls above, with kHole for each value
  /// that varies.
  [[nodiscard]] Shape shape(
      const std::function<void(JsonWriter&)>& describe) const;

  /// Writes a record of `shape` as the next element of the current
  /// container (or as a top-level value), filling its holes in order.
  /// A hole takes an unsigned integer, a string (quoted and escaped as
  /// value() would) or a bool, each of exactly that type.
  template <typename... Values>
  void record(const Shape& shape, const Values&... values) {
    assert(shape.holes() == sizeof...(Values));
    assert(shape.depth_ == stack_.size() && shape.indent_ == indent_);
    begin_element(false);
    const Shape::Piece* piece = shape.pieces_.data();
    ((put_piece(shape, *piece++), fill(values)), ...);
    put_piece(shape, *piece);
  }

  /// Appends `text` verbatim, outside the JSON structure: the newline
  /// that ends a document or a JSONL record.
  void raw(std::string_view text) { put(text); }

  /// Hands the buffered text to the stream.
  void flush() { out_.flush(); }

 private:
  static constexpr std::size_t kChunk = 16;

  struct Level {
    bool object;
    bool first;
  };

  [[nodiscard]] static constexpr bool needs_escape(char c) noexcept {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  }

  void put(char c) {
    char* const pos = out_.room(1);
    *pos = c;
    out_.advance(pos + 1);
  }
  void put(std::string_view text) { out_.write(text); }
  /// Copies a shape's piece in whole chunks: a few inline moves where a
  /// short memcpy of variable length is a library call. The chunk past
  /// the piece's end reads the shape's padding and writes buffer space
  /// the next write overwrites.
  void put_piece(const Shape& shape, Shape::Piece piece) {
    const char* const text = shape.text_.data() + piece.offset;
    if (out_.free() < piece.size + kChunk) {
      put(std::string_view(text, piece.size));
      return;
    }
    char* const pos = out_.room(piece.size + kChunk);
    for (std::size_t n = 0; n < piece.size; n += kChunk) {
      std::memcpy(pos + n, text + n, kChunk);
    }
    out_.advance(pos + piece.size);
  }
  void put_escape(char c);

  // A value without its separator: what record() puts in a hole. The
  // deleted catch-all keeps a stray int or const char* from converting
  // to the wrong one.
  void fill(std::uint64_t v) {
    char* const pos = out_.room(20);  // 20 digits hold any uint64.
    out_.advance(std::to_chars(pos, pos + 20, v).ptr);
  }
  void fill(std::string_view text) { string(text); }
  void fill(bool b) {
    put(b ? std::string_view("true") : std::string_view("false"));
  }
  template <typename T>
  void fill(const T&) = delete;

  /// The comma, line break and indent that precede an element at `depth`
  /// (indent 0: the comma alone). Drop the first character to get just
  /// the line break and indent.
  [[nodiscard]] std::string_view separator(std::size_t depth) const {
    return std::string_view(separators_.data(),
                            indent_ > 0 ? 2 + depth * indent_ : 1);
  }

  /// Separator before a new element of the innermost container. The
  /// first element gets no comma; inside an object a value follows its
  /// key directly and gets none at all.
  void begin_element(bool is_key) {
    if (stack_.empty()) return;
    Level& level = stack_.back();
    if (!level.object || is_key) {
      std::string_view sep = separator(stack_.size());
      if (level.first) sep.remove_prefix(1);
      put(sep);
      level.first = false;
    }
  }
  void open(char bracket, bool object);
  void close(char bracket) {
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty && indent_ > 0) {
      std::string_view sep = separator(stack_.size());
      sep.remove_prefix(1);
      put(sep);
    }
    put(bracket);
  }
  void string(std::string_view text) {
    put('"');
    const char* run = text.data();  // Start of the pending plain run.
    const char* const end = run + text.size();
    for (const char* p = run; p != end; ++p) {
      if (!needs_escape(*p)) continue;
      put(std::string_view(run, static_cast<std::size_t>(p - run)));
      put_escape(*p);
      run = p + 1;
    }
    put(std::string_view(run, static_cast<std::size_t>(end - run)));
    put('"');
  }

  OutputBlock out_;
  std::size_t indent_;
  std::vector<Level> stack_;
  std::string separators_;  ///< ",\n" and the deepest indent seen so far.
};

}  // namespace lssim

// Streaming JSON writer: the one place that owns JSON layout and
// escaping. `Json::write` walks its document tree into a JsonWriter; the
// bulk exporters (Perfetto trace, audit JSONL) drive one directly, so a
// trace of tens of thousands of events is never built as a tree.
//
// Layout. `indent` 0 emits a compact single line. `indent` > 0 puts each
// container element on its own line, `indent` spaces deeper per level,
// and writes ": " after a key. Empty containers print as {} and [].
// Unsigned integers print exactly; negative integers and doubles print
// as %.17g, and non-finite numbers as null (JSON has no Inf/NaN).
//
// Output collects in a 64 KiB buffer that goes to the stream whenever it
// fills, on flush() and on destruction; a failed write sets the stream's
// state like any ostream write, for the caller to check afterwards. The
// per-element calls are inline: the exporters make about twenty of them
// per trace event.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lssim {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 0);
  ~JsonWriter();
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
    put(b ? std::string_view("true") : std::string_view("false"));
  }
  void value(std::uint64_t v) {
    begin_element(false);
    if (end_ - pos_ < 20) flush();  // 20 digits hold any uint64.
    pos_ = std::to_chars(pos_, end_, v).ptr;
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

  /// key(name) followed by value(v).
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// Appends `text` verbatim, outside the JSON structure: the newline
  /// that ends a document or a JSONL record.
  void raw(std::string_view text) { put(text); }

  /// Hands the buffered text to the stream.
  void flush();

 private:
  struct Level {
    bool object;
    bool first;
  };

  [[nodiscard]] static constexpr bool needs_escape(char c) noexcept {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  }

  void put(char c) {
    if (pos_ == end_) flush();
    *pos_++ = c;
  }
  void put(std::string_view text) {
    if (text.size() <= static_cast<std::size_t>(end_ - pos_)) {
      std::memcpy(pos_, text.data(), text.size());
      pos_ += text.size();
    } else {
      put_long(text);
    }
  }
  void put_long(std::string_view text);
  void put_escape(char c);

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

  std::ostream& os_;
  std::size_t indent_;
  std::unique_ptr<char[]> buf_;
  char* pos_;
  char* end_;
  std::vector<Level> stack_;
  std::string separators_;  ///< ",\n" and the deepest indent seen so far.
};

}  // namespace lssim

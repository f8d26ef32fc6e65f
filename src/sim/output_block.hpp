// Fixed 64 KiB output block in front of an std::ostream: the one place
// that sets the block size and when buffered bytes go to the stream.
// The JSON writer (telemetry/json_writer.hpp) and the trace codec
// (trace/trace.cpp) write through it, so the stream sees one write, and
// builds one sentry, per block rather than per field.
//
// Callers encode straight into the block: room(n) returns the cursor
// with at least n free bytes after it, handing the block to the stream
// first when fewer are free, and advance(end) marks the bytes before
// `end` as written. Text of any length goes through write(). The block
// goes to the stream when it fills, on flush() and on destruction; a
// failed write sets the stream's state like any ostream write, for the
// caller to check afterwards.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

namespace lssim {

class OutputBlock {
 public:
  static constexpr std::size_t kBytes = 64 * 1024;

  explicit OutputBlock(std::ostream& os)
      : os_(os),
        block_(std::make_unique_for_overwrite<char[]>(kBytes)),
        pos_(block_.get()),
        end_(block_.get() + kBytes) {}
  ~OutputBlock() { flush(); }
  OutputBlock(const OutputBlock&) = delete;
  OutputBlock& operator=(const OutputBlock&) = delete;

  /// Bytes free before the block must go to the stream.
  [[nodiscard]] std::size_t free() const noexcept {
    return static_cast<std::size_t>(end_ - pos_);
  }

  /// The cursor, with at least `n` <= kBytes free bytes after it.
  [[nodiscard]] char* room(std::size_t n) {
    if (free() < n) flush();
    return pos_;
  }

  /// Marks the bytes from the cursor up to `end`, which room() allowed,
  /// as written.
  void advance(char* end) noexcept { pos_ = end; }

  void write(std::string_view text) {
    if (text.size() <= free()) {
      std::memcpy(pos_, text.data(), text.size());
      pos_ += text.size();
    } else {
      write_long(text);
    }
  }

  /// Hands the buffered bytes to the stream.
  void flush();

 private:
  /// Text that does not fit in the free bytes: it starts a new block, or
  /// goes to the stream directly when no block could hold it.
  void write_long(std::string_view text);

  std::ostream& os_;
  std::unique_ptr<char[]> block_;
  char* pos_;
  char* end_;
};

}  // namespace lssim

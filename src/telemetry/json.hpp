// Minimal JSON document model for the telemetry layer: the metrics
// snapshot, the latency report and the run manifest are built as trees,
// and the tests (and `--manifest-out` consumers) need to parse JSON back.
// The bulk exporters (Perfetto trace, audit JSONL) stream through
// JsonWriter without a tree.
//
// Deliberately small: a value variant, a recursive-descent parser, and a
// tree walk into the streaming JsonWriter (json_writer.hpp), which owns
// the layout. Unsigned integers round-trip exactly (counters can exceed
// the 2^53 double range); everything else is stored as double. No
// external dependencies.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lssim {

class JsonWriter;

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kUint,    ///< Exact unsigned integer (counters, cycles).
    kNumber,  ///< Any other number, stored as double.
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  /// Insertion-ordered object (stable output, preserves schema ordering).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(std::uint64_t value) : type_(Type::kUint), uint_(value) {}
  Json(std::uint32_t value) : Json(static_cast<std::uint64_t>(value)) {}
  Json(int value)
      : type_(value < 0 ? Type::kNumber : Type::kUint),
        uint_(value < 0 ? 0 : static_cast<std::uint64_t>(value)),
        num_(static_cast<double>(value)) {}
  Json(std::int64_t value)
      : type_(value < 0 ? Type::kNumber : Type::kUint),
        uint_(value < 0 ? 0 : static_cast<std::uint64_t>(value)),
        num_(static_cast<double>(value)) {}
  Json(double value) : type_(Type::kNumber), num_(value) {}
  Json(const char* value) : type_(Type::kString), str_(value) {}
  Json(std::string value) : type_(Type::kString), str_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), arr_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), obj_(std::move(value)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kUint || type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  /// The value as an unsigned integer: negative and NaN read as 0, a
  /// double at or above 2^64 as the maximum, a fraction truncates. Input
  /// readers use to_uint, which rejects all of those instead.
  [[nodiscard]] std::uint64_t as_uint() const noexcept {
    if (type_ == Type::kUint) return uint_;
    if (!(num_ > 0)) return 0;
    return num_ < kTwoTo64 ? static_cast<std::uint64_t>(num_)
                           : std::numeric_limits<std::uint64_t>::max();
  }
  /// Checked integer read: true and `*out` set when the value is an
  /// integral number in [0, max]; false for anything else (non-numbers,
  /// fractions, negatives, values above `max`).
  bool to_uint(std::uint64_t max, std::uint64_t* out) const noexcept {
    if (type_ == Type::kUint) {
      if (uint_ > max) return false;
      *out = uint_;
      return true;
    }
    if (type_ != Type::kNumber || !(num_ >= 0) || !(num_ < kTwoTo64) ||
        static_cast<double>(static_cast<std::uint64_t>(num_)) != num_ ||
        static_cast<std::uint64_t>(num_) > max) {
      return false;
    }
    *out = static_cast<std::uint64_t>(num_);
    return true;
  }
  [[nodiscard]] double as_double() const noexcept {
    return type_ == Type::kUint ? static_cast<double>(uint_) : num_;
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }
  [[nodiscard]] Array& as_array() noexcept { return arr_; }
  [[nodiscard]] Object& as_object() noexcept { return obj_; }

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// The one checked integer read for loaded documents: member `key`,
  /// when present, must be an integral number that fits T; it is stored
  /// in `*out`. An absent member leaves `*out` untouched (older documents
  /// lack newer fields). On a bad value returns false and sets `*error`
  /// to a message naming `key`.
  template <typename T>
  bool read_uint(std::string_view key, T* out, std::string* error) const {
    const Json* v = find(key);
    if (v == nullptr) return true;
    const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    std::uint64_t value = 0;
    if (!v->to_uint(max, &value)) {
      if (error != nullptr) {
        *error = "field '" + std::string(key) +
                 "' must be a whole number from 0 to " + std::to_string(max);
      }
      return false;
    }
    *out = static_cast<T>(value);
    return true;
  }

  /// Appends a member to an object value (or turns a null into an object).
  void set(std::string key, Json value) {
    if (type_ == Type::kNull) type_ = Type::kObject;
    obj_.emplace_back(std::move(key), std::move(value));
  }

  /// Serialises to `os`. `indent` > 0 pretty-prints with that many spaces
  /// per level; 0 emits a compact single line.
  void write(std::ostream& os, int indent = 0) const;
  /// Emits this value into `writer`, e.g. to embed a tree in a stream.
  void write(JsonWriter& writer) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses `text`; on failure returns a null value and sets `*error` to
  /// a description with an offset. A successful parse of the literal
  /// `null` also yields a null value with `*error` left empty.
  static Json parse(std::string_view text, std::string* error);

 private:
  static constexpr double kTwoTo64 = 18446744073709551616.0;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace lssim

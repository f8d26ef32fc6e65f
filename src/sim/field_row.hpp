// Row builders shared by the single-source field tables
// (workloads/result_fields.hpp for RunResult, sim/machine_fields.hpp for
// MachineConfig). A row reads and writes one member of an `Object`,
// reached through a path of member pointers and array indices, as a
// std::uint64_t; named rows also map values to and from a NameTable.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace lssim {

template <typename Object>
struct FieldRow {
  const char* key;  ///< Path as documents show it ("l1.size_bytes").
  std::uint64_t (*get)(const Object& object);
  void (*set)(Object& object, std::uint64_t value);
  /// Name fields only (null otherwise): the canonical name of a value,
  /// and the inverse parse (aliases accepted).
  const char* (*name)(std::uint64_t value);
  bool (*parse)(std::string_view text, std::uint64_t* value);
  /// The largest value the member holds; readers reject larger ones
  /// before `set` narrows.
  std::uint64_t max;
  bool flag;  ///< A bool member (JSON writes true/false).

  /// `value` as reports show it: a name or a decimal number.
  [[nodiscard]] std::string text(std::uint64_t value) const {
    return name != nullptr ? std::string(name(value))
                           : std::to_string(value);
  }
};

namespace field_row {

/// Follows `Path` — member pointers and array indices — from `object`
/// to one value.
template <auto Step, auto... Rest, typename T>
constexpr auto& walk(T& object) {
  auto& next = [&]() -> auto& {
    if constexpr (std::is_member_object_pointer_v<decltype(Step)>) {
      return object.*Step;
    } else {
      return object[Step];
    }
  }();
  if constexpr (sizeof...(Rest) == 0) {
    return next;
  } else {
    return walk<Rest...>(next);
  }
}

/// The number (or bool) at `Path` of an `Object`.
template <typename Object, auto... Path>
constexpr FieldRow<Object> number(const char* key) {
  using Value = std::remove_cvref_t<decltype(walk<Path...>(
      std::declval<Object&>()))>;
  return {key,
          [](const Object& o) {
            return static_cast<std::uint64_t>(walk<Path...>(o));
          },
          [](Object& o, std::uint64_t v) {
            walk<Path...>(o) = static_cast<Value>(v);
          },
          nullptr,
          nullptr,
          static_cast<std::uint64_t>(std::numeric_limits<Value>::max()),
          std::is_same_v<Value, bool>};
}

/// The enum at `Path` of an `Object`, named through `Table` (a
/// NameTable whose kinds are 0 .. N-1).
template <typename Object, const auto& Table, auto... Path>
constexpr FieldRow<Object> named(const char* key) {
  using Kind = decltype(Table.rows[0].kind);
  FieldRow<Object> row = number<Object, Path...>(key);
  row.name = [](std::uint64_t v) { return Table.name(static_cast<Kind>(v)); };
  row.parse = [](std::string_view text, std::uint64_t* v) {
    Kind kind;
    if (!Table.parse(text, &kind)) return false;
    *v = static_cast<std::uint64_t>(kind);
    return true;
  };
  row.max = Table.rows.size() - 1;
  return row;
}

}  // namespace field_row
}  // namespace lssim

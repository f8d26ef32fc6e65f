// One name table per enum: the canonical names every report, manifest
// and repro prints, the aliases the CLI accepts, and the one parser all
// of them resolve through.
//
// A table row is {kind, canonical name, aliases}. Parsing is
// case-insensitive and accepts the canonical name or any alias, so
// printing and parsing round-trip exactly wherever a name is read back
// (driver flags, manifests, results stores, repro files). The protocol
// registry (core/protocol_registry.hpp) and make_directory_policy()
// (core/directory_policy.hpp) key their rows and cases by kind and take
// names from here.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lssim {

/// One row of a NameTable.
template <typename Kind>
struct NamedKind {
  Kind kind;
  const char* name;     ///< Canonical, e.g. "LS+AD".
  const char* aliases;  ///< Space-separated extra spellings ("" = none).
};

/// True when `text` is `name` or one of the space-separated `aliases`,
/// ignoring ASCII case. Empty text never matches.
[[nodiscard]] bool name_matches(std::string_view text, const char* name,
                                const char* aliases) noexcept;

/// The elements of a comma-separated list, empty ones included.
[[nodiscard]] std::vector<std::string> split_name_list(
    const std::string& csv);

template <typename Kind, std::size_t N>
struct NameTable {
  const char* noun;  ///< What a row names, for messages ("protocol").
  std::array<NamedKind<Kind>, N> rows;

  /// Canonical name of `kind` ("?" when no row has it).
  [[nodiscard]] constexpr const char* name(Kind kind) const noexcept {
    for (const NamedKind<Kind>& row : rows) {
      if (row.kind == kind) return row.name;
    }
    return "?";
  }

  /// Resolves a canonical name or alias; false on unknown names.
  bool parse(std::string_view text, Kind* out) const noexcept {
    for (const NamedKind<Kind>& row : rows) {
      if (name_matches(text, row.name, row.aliases)) {
        *out = row.kind;
        return true;
      }
    }
    return false;
  }

  /// Canonical names joined by `separator`, in table order.
  [[nodiscard]] std::string joined(const char* separator = ", ") const {
    std::string out;
    for (const NamedKind<Kind>& row : rows) {
      if (!out.empty()) out += separator;
      out += row.name;
    }
    return out;
  }

  /// Every kind, in table order.
  [[nodiscard]] std::vector<Kind> all() const {
    std::vector<Kind> kinds;
    kinds.reserve(N);
    for (const NamedKind<Kind>& row : rows) kinds.push_back(row.kind);
    return kinds;
  }

  /// Resolves the comma-separated list given to `flag`, dropping
  /// duplicates (the first occurrence keeps its position). On an empty or
  /// unknown element returns false and sets `*error` to a message naming
  /// the element and listing the canonical names.
  bool parse_list(const std::string& csv, const char* flag,
                  std::vector<Kind>* out, std::string* error) const {
    std::vector<Kind> kinds;
    for (const std::string& element : split_name_list(csv)) {
      Kind kind;
      if (!parse(element, &kind)) {
        *error = std::string("unknown ") + noun + " '" + element + "' in " +
                 flag + " " + csv + " (registered: " + joined() + ")";
        return false;
      }
      if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
        kinds.push_back(kind);
      }
    }
    *out = std::move(kinds);
    return true;
  }
};

}  // namespace lssim

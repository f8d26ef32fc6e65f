// Kind-keyed protocol registry: each protocol is one row, a tag rule
// over a base protocol. Names and aliases live in kProtocolNames
// (sim/config.hpp); every name parse goes through it.
//
// Adding a protocol:
//   1. add the enum value and its kProtocolNames row in sim/config.hpp,
//   2. add its row in protocol_registry.cpp: a tag rule and a base.
// A new tag rule means hooks in core/tag_rules.hpp and a case in
// make_policy. Driver flags, manifests, repro files and reports need
// nothing else.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/coherence_policy.hpp"
#include "sim/config.hpp"

namespace lssim {

/// When a block is tagged and so read exclusive (core/tag_rules.hpp).
/// kNone never tags; kIls predicts exclusive reads per access site.
enum class TagRule : std::uint8_t { kNone, kLs, kAd, kLsAd, kIls };

/// The write-invalidate (or write-update) protocol under the tag rule.
/// The engine reads these once at construction.
struct BaseProtocol {
  /// Illinois E: a read of an uncached block is granted exclusive.
  bool cold_exclusive = false;
  /// A read miss on a dirty block is served cache to cache and the owner
  /// keeps the block in Owned (MOESI's O); otherwise the owner writes
  /// back and home memory becomes clean.
  bool owner_keeps = false;
  /// Dragon write-update: a write pushes the new data to the remote
  /// copies instead of invalidating them; the writer lands in Owned.
  bool updates = false;
};

struct ProtocolInfo {
  ProtocolKind kind;
  const char* summary;  ///< One-liner for --help and docs.
  TagRule rule;
  BaseProtocol base;

  /// Whether the §5.5 `default_tagged` knob applies: may every directory
  /// entry start out tagged?
  [[nodiscard]] constexpr bool has_tag_rule() const noexcept {
    return rule != TagRule::kNone;
  }
};

/// All registered protocols, in ProtocolKind order.
[[nodiscard]] std::span<const ProtocolInfo> registered_protocols();

/// Registry entry for `kind` (every kind is registered).
[[nodiscard]] const ProtocolInfo& protocol_info(ProtocolKind kind);

/// Every protocol kind, in table order (e.g. for --compare).
[[nodiscard]] inline std::vector<ProtocolKind> all_protocol_kinds() {
  return kProtocolNames.all();
}

/// Constructs the policy of `config.protocol.kind`'s tag rule.
[[nodiscard]] std::unique_ptr<CoherencePolicy> make_policy(
    const MachineConfig& config);

}  // namespace lssim

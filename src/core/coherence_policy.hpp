// The pluggable protocol-policy seam of the memory system.
//
// The paper's observation (§2.1/§3.1) is that Baseline, AD and LS differ
// only in *when* a block gets tagged/de-tagged and in *whether* reads of
// tagged blocks return exclusive copies; the transaction mechanics —
// message legs, directory state machine, invalidation fan-out, latency
// composition — are shared. MemorySystem (core/protocol.cpp) implements
// exactly those shared mechanics and delegates every tag decision to a
// CoherencePolicy through the hooks below.
//
// A protocol is one row of the protocol registry
// (core/protocol_registry.hpp): a tag rule over a base protocol. The
// base (Illinois cold-exclusive reads, owner-keeps dirty reads, Dragon
// write-update) is three facts the engine reads once at construction;
// the tag rule picks the policy. This class alone, which tags nothing,
// is the policy of every protocol without a tag rule (Baseline, MESI,
// MOESI, Dragon); core/tag_rules.hpp holds the LS/AD rules and ILS's
// predictor. It stays subclassable for fault injection (check/).
//
// Hook contract (docs/PROTOCOL.md "Adding a protocol" has the prose):
//   * Hooks return *decisions* (TagAction / WriteTagDecision / bool); the
//     engine applies them through its tag/de-tag machinery, which owns
//     the §5.5 hysteresis counters, statistics, the event log and
//     telemetry. Policies never mutate directory entries themselves.
//   * Hooks fire at the same points for every protocol, in transaction
//     order: observe_access (every access, before the cache probe) →
//     read_grants_exclusive / on_global_write (miss classification) →
//     on_upgrade_invalidations / on_foreign_access (remote effects) →
//     on_victim_writeback (replacement).
//   * Per-node predictor state (ILS's confidence tables) is owned by the
//     policy, not the engine; ils_predictor() exposes it to tests.
#pragma once

#include <cstdint>

#include "core/directory.hpp"
#include "core/directory_policy.hpp"
#include "cache/cache.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace lssim {

class IlsPredictor;

/// A tag/de-tag decision applied by the engine's hysteresis machinery
/// (MemorySystem::tag_event / detag_event).
enum class TagAction : std::uint8_t { kNone, kTag, kDetag };

/// Why a tag/de-tag decision was made — the audit trail's reason code
/// (telemetry/audit.hpp). The engine knows the reason at three of its
/// four hook sites (foreign access, replacement, upgrade invalidations);
/// on_global_write decisions carry their reason in WriteTagDecision
/// because only the policy knows which of its rules fired.
enum class TagReason : std::uint8_t {
  kLsSequence,           ///< §3.1: ownership request source == LR field.
  kMigratoryDetect,      ///< AD: unbroken read→write hand-off at upgrade.
  kMigratoryFallback,    ///< LS+AD hybrid: AD evidence where LR is blind.
  kLoneWrite,            ///< Write miss without the writer's own read.
  kForeignAccess,        ///< Foreign access hit an LStemp owner (§3.1).
  kReplacement,          ///< Owning copy replaced (hand-off chain broken).
  kUpgradeInvalidations, ///< Upgrade invalidated several copies (AD).
};

[[nodiscard]] constexpr const char* to_string(TagReason reason) noexcept {
  switch (reason) {
    case TagReason::kLsSequence: return "ls-sequence";
    case TagReason::kMigratoryDetect: return "migratory-detect";
    case TagReason::kMigratoryFallback: return "migratory-fallback";
    case TagReason::kLoneWrite: return "lone-write";
    case TagReason::kForeignAccess: return "foreign-access";
    case TagReason::kReplacement: return "replacement";
    case TagReason::kUpgradeInvalidations: return "upgrade-invalidations";
  }
  return "?";
}

/// Decision returned by CoherencePolicy::on_global_write.
struct WriteTagDecision {
  TagAction action = TagAction::kNone;
  /// True when the de-tag was caused by a lone write (a write miss not
  /// preceded by the writer's own read, paper §3.1): the engine must not
  /// de-tag a second time when the same transaction later finds the old
  /// owner's copy in LStemp.
  bool lone_write_detag = false;
  /// Which rule fired (audit trail); meaningless when action is kNone.
  TagReason reason = TagReason::kLsSequence;
};

class CoherencePolicy {
 public:
  explicit CoherencePolicy(ProtocolKind kind) noexcept : kind_(kind) {}
  virtual ~CoherencePolicy() = default;

  /// The registry row this policy implements; the engine reads the
  /// row's base-protocol facts through it.
  [[nodiscard]] ProtocolKind kind() const noexcept { return kind_; }

  /// True when the policy needs observe_access() on every access (hits
  /// included). The engine caches this once so passive policies keep the
  /// L1-hit fast path at a single predictable branch.
  [[nodiscard]] virtual bool observes_accesses() const noexcept {
    return false;
  }

  /// Called for every access before the cache probe. Instruction-centric
  /// policies train/query their per-node predictor here. Returns true
  /// when a *read* should request an exclusive copy regardless of the
  /// home's tag bit. Only called when observes_accesses() is true.
  virtual bool observe_access(NodeId node, Addr block, std::uint32_t site,
                              bool is_write) {
    (void)node;
    (void)block;
    (void)site;
    (void)is_write;
    return false;
  }

  /// Classifies a read miss at the home: should the reply carry an
  /// exclusive (LStemp) copy? `predicted` is observe_access()'s verdict.
  /// The default is the paper's rule: data-centric tag OR requester-side
  /// prediction. The engine adds the base's cold-exclusive grant.
  [[nodiscard]] virtual bool read_grants_exclusive(
      const DirEntry& entry, bool predicted) const {
    return entry.tagged || predicted;
  }

  /// Tag rules at a global write action (ownership upgrade or write
  /// miss), evaluated before the directory transitions. `entry` still
  /// holds the pre-write state (sharers, last_reader, last_writer).
  virtual WriteTagDecision on_global_write(const DirEntry& entry,
                                           NodeId writer, bool upgrade) {
    (void)entry;
    (void)writer;
    (void)upgrade;
    return {};
  }

  /// Called when an ownership upgrade sends `count` invalidations to
  /// other sharers. AD's de-detection: several copies invalidated means
  /// the block is read-shared, not migratory.
  [[nodiscard]] virtual TagAction on_upgrade_invalidations(
      const DirEntry& entry, int count) const {
    (void)entry;
    (void)count;
    return TagAction::kNone;
  }

  /// Called when a foreign access reaches a block whose owner holds it
  /// in LStemp (exclusive, not yet written): paper §3.1 case 2. The
  /// default de-tags — a no-op for untagged entries, so policies that
  /// never tag need not override.
  [[nodiscard]] virtual TagAction on_foreign_access(
      const DirEntry& entry) const {
    (void)entry;
    return TagAction::kDetag;
  }

  /// Predictor feedback: the exclusive copy granted to `node` (from
  /// static access site `site`) was downgraded, invalidated or replaced
  /// before the owning write — the grant went unused.
  virtual void on_exclusive_grant_unused(NodeId node, std::uint32_t site) {
    (void)node;
    (void)site;
  }

  /// Called when a node replaces an L2 line (any state) before the
  /// victim's directory bookkeeping runs. AD drops the migratory tag
  /// here when the *owning* copy is replaced: the hand-off chain is
  /// broken (exactly the fragility the paper's §3.1 exploits — LS keeps
  /// its bit across replacements by design).
  [[nodiscard]] virtual TagAction on_victim_writeback(
      const DirEntry& entry, CacheState victim_state) const {
    (void)entry;
    (void)victim_state;
    return TagAction::kNone;
  }

  /// Per-node predictor state, when the policy has any (ILS). Exposed
  /// for tests and inspection tools; null for data-centric policies.
  [[nodiscard]] virtual IlsPredictor* ils_predictor() noexcept {
    return nullptr;
  }

  /// Lets the policy decode sharer words through the machine's directory
  /// organisation. The engine calls this once at construction; policies
  /// driven standalone (unit tests) keep the null default and fall back
  /// to the full-map bitmap encoding.
  void attach_directory_policy(const DirectoryPolicy* directory) noexcept {
    directory_ = directory;
  }

 protected:
  const DirectoryPolicy* directory_ = nullptr;

 private:
  ProtocolKind kind_;
};

}  // namespace lssim

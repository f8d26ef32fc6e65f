// The memory-system transaction engine: caches + directory + network
// glued into atomic, synchronously executed coherence transactions.
//
// This is the core of the reproduction. One protocol-agnostic engine
// implements the shared transaction mechanics (paper §2.1, §3.1): message
// legs, the directory state machine, invalidation fan-out and latency
// composition. Everything protocol-specific — when a block gets tagged or
// de-tagged, whether a read of a tagged block returns an exclusive
// (LStemp) copy, predictor training — is delegated to a CoherencePolicy
// (core/coherence_policy.hpp) resolved from the protocol registry:
// Baseline, AD, LS, ILS and the LS+AD hybrid all run through the exact
// same engine code.
//
// Because the simulated machine is sequentially consistent and processors
// stall on every L2 miss (paper §4.2), each access can be executed as one
// atomic transaction at its issue time: there are no transient directory
// states and no retries. Latency is composed from the Table 1 components;
// with default latencies an uncontended read costs exactly 100 (local),
// 220 (2-hop clean) or 420 (4-hop read-on-dirty) cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "core/coherence_policy.hpp"
#include "core/directory.hpp"
#include "core/directory_policy.hpp"
#include "mem/address_space.hpp"
#include "net/interconnect.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "core/ils_predictor.hpp"
#include "stats/false_sharing.hpp"
#include "stats/ls_oracle.hpp"
#include "stats/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace lssim {

namespace check {
class InvariantChecker;  // src/check/invariants.hpp
}

/// Operation kinds a processor can issue. Atomic read-modify-writes are
/// single coherence transactions treated as writes (like SPARC ldstub /
/// swap), returning the old value.
enum class MemOpKind : std::uint8_t {
  kRead,
  kWrite,
  kSwap,
  kFetchAdd,
  kCas,
};

struct AccessRequest {
  MemOpKind op = MemOpKind::kRead;
  Addr addr = 0;
  unsigned size = 4;
  std::uint64_t wdata = 0;     ///< Store value / addend / CAS desired.
  std::uint64_t expected = 0;  ///< CAS expected value.
  StreamTag tag = StreamTag::kApp;
  /// Static access-site id (hash of the issuing source location); the
  /// simulator's stand-in for the program counter, used by kIls.
  std::uint32_t site = 0;

  [[nodiscard]] bool is_write() const noexcept {
    return op != MemOpKind::kRead;
  }
};

struct AccessResult {
  Cycles latency = 0;
  std::uint64_t value = 0;  ///< Loaded value (read) or old value (RMW).
  bool l1_hit = false;
  bool l2_hit = false;
  bool global = false;  ///< Transaction reached the home node.
};

class MemorySystem {
 public:
  /// `telemetry` (optional) is the sink every coherence event is emitted
  /// to, once (telemetry/telemetry.hpp). Null (the default) or a sink
  /// with every pillar off keeps the hook to a single branch.
  ///
  /// `policy_override` (optional) replaces the registry-resolved policy;
  /// the verification subsystem uses it to inject deliberately buggy
  /// policies (fault injection) without registering them.
  MemorySystem(const MachineConfig& config, AddressSpace& space,
               Stats& stats, Telemetry* telemetry = nullptr,
               std::unique_ptr<CoherencePolicy> policy_override = nullptr);
  ~MemorySystem();

  /// Executes one access atomically at simulated time `now`.
  AccessResult access(NodeId node, const AccessRequest& req, Cycles now);

  /// Trace-replay fast path: skips simulated data movement (the
  /// AddressSpace load/store per access). Values feed only the live
  /// workload's control flow and the invariant checker — never statistics
  /// — so a replayed run's results are unchanged; AccessResult::value
  /// reads as zero. Only the ReplayCompareEngine may enable this (a
  /// driving workload or attached checker requires real values).
  void enable_lean_replay() noexcept { lean_replay_ = true; }

  /// End-of-run bookkeeping: resolves deferred false-sharing
  /// classifications for lines still resident.
  void finalize();

  // ---- spin parking (machine/system.hpp) ------------------------------
  /// True when an L1 read hit only counts: fast hit path live (classifier
  /// off, direct-mapped L2), passive policy, no checker.
  [[nodiscard]] bool spin_parking_eligible() const noexcept {
    return l1_fast_hit_ && !policy_observes_accesses_ && checker_ == nullptr;
  }
  /// Watches `node`'s L1 copy of `addr`'s block until a transaction
  /// changes it (copy_changed); false, watching nothing, if not in L1.
  bool park(NodeId node, Addr addr);
  void unpark(NodeId node) noexcept {
    parked_count_ -= parked_block_[node] != kNotParked;
    parked_block_[node] = kNotParked;
  }
  [[nodiscard]] std::uint32_t parked() const noexcept { return parked_count_; }
  /// Nodes woken (and no longer watched) since the caller last cleared it.
  [[nodiscard]] std::vector<NodeId>& woken() noexcept { return woken_; }

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] LoadStoreOracle& oracle() noexcept { return oracle_; }
  /// The protocol policy driving this engine's tag/grant decisions.
  [[nodiscard]] CoherencePolicy& policy() noexcept { return *policy_; }
  /// ILS's per-node predictor tables; only valid when the active policy
  /// is instruction-centric (policy().ils_predictor() != nullptr).
  [[nodiscard]] IlsPredictor& predictor() noexcept {
    return *policy_->ils_predictor();
  }
  [[nodiscard]] const CoherencePolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] FalseSharingClassifier& classifier() noexcept { return fs_; }
  /// The coherence transport (directory network or snooping bus; see
  /// net/interconnect.hpp).
  [[nodiscard]] Interconnect& interconnect() noexcept { return *net_; }
  [[nodiscard]] Directory& directory() noexcept { return dir_; }
  [[nodiscard]] const Directory& directory() const noexcept { return dir_; }
  /// The directory organisation decoding this machine's sharer words.
  [[nodiscard]] const DirectoryPolicy& directory_policy() const noexcept {
    return *dirpol_;
  }
  [[nodiscard]] CacheHierarchy& cache(NodeId node) noexcept {
    return caches_[node];
  }
  [[nodiscard]] const CacheHierarchy& cache(NodeId node) const noexcept {
    return caches_[node];
  }

  /// Attaches (or detaches, with nullptr) the protocol invariant checker
  /// (src/check/invariants.hpp). Same null-gated pattern as telemetry:
  /// detached, the per-access cost is one pointer compare. The checker
  /// must outlive this engine or be detached first.
  void attach_checker(check::InvariantChecker* checker) noexcept {
    checker_ = checker;
  }

 private:
  // One protocol "leg": a message src -> dst paying one controller
  // traversal per endpoint crossing; same-node legs cost one controller
  // pass (the request stays inside the node).
  Cycles leg(NodeId src, NodeId dst, MsgType type, Cycles t);
  // Variant whose egress controller cost is folded into the preceding
  // cache readout (owner replies); free for same-node.
  Cycles leg_noegress(NodeId src, NodeId dst, MsgType type, Cycles t);

  // How a transaction reaches the block's other holders. These three are
  // the only places that tell the directory network from the snooping
  // bus, whose request broadcast already reached every cache.
  //
  // Invalidates (survivors == nullptr) or Dragon-updates every target on
  // `node`'s behalf: serial home -> target legs one controller pass apart
  // from `issue`, each acked to `node`, none on the bus. Counts
  // invalidations_sent / updates_sent; an update adds the targets still
  // holding a copy to `*survivors`. Returns the last ack (`issue` if none).
  Cycles fan_out(NodeId home, NodeId node, Addr block,
                 const SharerSet& targets, Cycles issue,
                 SharerSet* survivors);
  // Moves `owner`'s data to `node` from `t`: cache to cache on the bus,
  // or `to_home` to the home (a memory update) and `reply` on from there.
  Cycles supply(NodeId owner, NodeId home, NodeId node, MsgType to_home,
                MsgType reply, Cycles t);
  // The home's directed forward of a request to `owner` (free on the bus).
  Cycles forward(NodeId home, NodeId owner, MsgType type, Cycles t);

  Cycles do_read_miss(NodeId node, Addr block, Cycles now,
                      bool predicted_exclusive, std::uint32_t site);
  Cycles do_write_global(NodeId node, Addr block, Cycles now, bool upgrade);

  void handle_l2_victim(NodeId node, const CacheLine& victim, Cycles t);
  void invalidate_cached_copy(NodeId node, Addr block);
  /// Every change a transaction makes to another node's cached copy
  /// (invalidation, downgrade, update delivery) passes here and wakes a
  /// node parked on it; a node without a copy is never parked on it.
  /// One branch while nothing is parked.
  void copy_changed(NodeId node, Addr block) {
    if (parked_count_ != 0 && parked_block_[node] == block) {
      unpark(node);
      woken_.push_back(node);
    }
  }
  /// A remote downgrade of `node`'s copy.
  void set_remote_state(NodeId node, Addr block, CacheState state) {
    caches_[node].set_state(block, state);
    copy_changed(node, block);
  }

  /// Directory entry for `block` at the start of a global transaction.
  /// Under the sparse organisation this is where the bounded population
  /// is enforced: inserting a new block into a full table first evicts a
  /// victim entry (invalidating its cached copies).
  DirEntry& dir_entry_at(Addr block, Cycles now);
  void evict_directory_entry(Addr incoming, Cycles now);

  /// The one telemetry hook: every coherence event passes here once, with
  /// `entry`'s state after the event. One branch when telemetry is off.
  void emit(ProtoEventKind kind, NodeId node, Addr block, Cycles time,
            const DirEntry& entry, Cycles end = 0,
            TagReason reason = TagReason::kLsSequence) {
    if (telemetry_ != nullptr) {
      telemetry_->emit({time, end, block, node, kind, entry.state,
                        entry.tagged, reason, entry.tag_progress,
                        entry.detag_progress});
    }
  }
  /// A store completing locally in LStemp; looks the home entry up only
  /// when telemetry is on.
  void emit_local_write(NodeId node, Addr block, Cycles time) {
    if (telemetry_ != nullptr) {
      emit(ProtoEventKind::kLocalWrite, node, block, time,
           *dir_.find(block));
    }
  }

  void tag_event(DirEntry& entry, TagReason reason, Addr block, NodeId node);
  void detag_event(DirEntry& entry, TagReason reason, Addr block,
                   NodeId node);
  /// Applies a policy decision through the tag/de-tag machinery. `reason`
  /// is the audit reason code of the rule that produced `action`;
  /// `block`/`node` identify the decided block (the victim, for
  /// replacements) and the node whose access caused the decision
  /// (requester, or evicting node for replacements).
  void apply_tag_action(TagAction action, DirEntry& entry, TagReason reason,
                        Addr block, NodeId node);

  [[nodiscard]] HomeStateAtMiss classify_home_state(Addr block,
                                                    const DirEntry& e) const;

  std::uint64_t apply_data(const AccessRequest& req);

  MachineConfig cfg_;
  LatencyConfig lat_;
  AddressSpace& space_;
  Stats& stats_;
  /// The pluggable protocol policy (declared before dir_: the directory's
  /// default-tagged knob asks the policy whether tagging applies at all).
  std::unique_ptr<CoherencePolicy> policy_;
  /// Cached policy_->observes_accesses() so passive policies keep the
  /// L1-hit fast path free of virtual dispatch.
  bool policy_observes_accesses_ = false;
  /// The directory organisation (full-map, limited-ptr, coarse, sparse):
  /// owns the sharer-word encoding, resolves invalidation targets.
  std::unique_ptr<DirectoryPolicy> dirpol_;
  /// Sparse organisation's entry-population bound; 0 = unbounded.
  std::uint32_t dir_entry_limit_ = 0;
  /// The coherence transport (net/interconnect.hpp): the directory
  /// network or the snooping bus, per cfg_.interconnect.
  std::unique_ptr<Interconnect> net_;
  /// Cached net_->snoops(): on a snooping transport the engine skips the
  /// directed forward/invalidate/update legs — the request broadcast
  /// already reached every cache.
  bool snoops_ = false;
  /// Cached policy_->writes_update_sharers() (Dragon write-update).
  bool update_mode_ = false;
  /// Cached ProtocolConfig::trust_update_sharers (fault injection).
  bool trust_updates_ = false;
  Directory dir_;
  std::vector<CacheHierarchy> caches_;
  FalseSharingClassifier fs_;
  LoadStoreOracle oracle_;
  /// The coherence-event sink; null when every pillar is off.
  Telemetry* telemetry_ = nullptr;
  /// Invariant checker hook (null when verification is off).
  check::InvariantChecker* checker_ = nullptr;
  /// Cached cfg_.classify_false_sharing: gates the word-mask computation
  /// and classifier hooks out of the hot path in the common (off) case.
  bool fs_enabled_ = false;
  /// L1 hits may resolve from the L1 probe alone: requires the classifier
  /// off (no accessed-word mask on the L2 line) and a direct-mapped L2
  /// (no LRU stamp) — then the per-hit L2-side bookkeeping is dead and
  /// the inclusion invariant (L1 state == L2 state) decides the access.
  bool l1_fast_hit_ = false;
  /// Set-associative L1 (its LRU stamp is live): after a global fill the
  /// fast path must still re-find and touch the L1 line.
  bool l1_lru_live_ = false;
  /// Replay fast path: skip simulated data movement (see
  /// enable_lean_replay).
  bool lean_replay_ = false;
  /// Spin parking: each node's watched block, how many, who woke.
  static constexpr Addr kNotParked = ~Addr{0};
  std::vector<Addr> parked_block_;
  std::uint32_t parked_count_ = 0;
  std::vector<NodeId> woken_;
  // Scratch: context of the in-flight access (for oracle/tag hooks).
  StreamTag current_tag_ = StreamTag::kApp;
  Cycles current_time_ = 0;
};

}  // namespace lssim

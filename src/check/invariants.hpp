// Protocol invariant checker: redundant, independent verification of the
// transaction engine after every access.
//
// The paper's claim is that LS/LS+AD are *behaviour-preserving*
// extensions of the baseline write-invalidate protocol. Bit-identical
// figure outputs only establish that for states the benchmarks reach;
// this checker states the property directly and checks it on every
// transaction of any run:
//
//   * SWMR — at most one writable (Modified/LStemp) copy exists, and
//     never alongside Shared copies.
//   * Data-value — every read (and every RMW's old value) equals the
//     value produced by a sequentially-consistent reference memory the
//     checker maintains itself, independent of the engine's
//     AddressSpace.
//   * Directory/cache agreement — owner fields and per-state copy
//     counts match the actual cache contents, and the two-level
//     hierarchy keeps inclusion. Sharer sets are checked through the
//     machine's directory organisation: a *precise* entry must agree
//     exactly, an *imprecise* one (Dir_iB pointer overflow, coarse
//     regions) must believe a superset of the real holders — a real
//     holder the directory would not invalidate is always a violation,
//     under every organisation.
//   * LS-tag consistency — hysteresis counters stay in bounds, Baseline
//     never tags or grants exclusive reads, data-centric policies only
//     grant LStemp copies of blocks that were tagged at request time,
//     and (for the LS protocol under the paper's default knobs) the tag
//     bit tracks an independent model of the §3.1 tag/de-tag rules —
//     which is how a policy that "forgets" a de-tag rule is caught.
//
// The checker attaches to a MemorySystem through the same null-gated
// hook pattern as telemetry: a disabled run pays one pointer compare per
// access and is bit-identical to an unchecked run. An enabled run pays a
// full directory × cache scan per access — meant for tiny verification
// configs (src/check/explorer.hpp, fuzzer.hpp) and opt-in driver runs
// (--check-invariants), not for the headline figures.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "core/sharer_set.hpp"
#include "sim/types.hpp"

namespace lssim::check {

/// One invariant violation, with enough context to debug it.
struct Violation {
  std::string invariant;  ///< e.g. "swmr", "data-value", "ls-tag".
  std::string detail;
  std::uint64_t access_index = 0;  ///< 1-based index of the access.

  [[nodiscard]] std::string message() const {
    return "[" + invariant + "] after access #" +
           std::to_string(access_index) + ": " + detail;
  }
};

struct CheckerOptions {
  /// Violations kept verbatim; further ones only bump the counter.
  std::size_t max_violations = 16;
  /// Model the LS protocol's §3.1 tag rules independently (only applies
  /// when the active policy is LS with hysteresis depth 1 and
  /// default_tagged off — the model mirrors the paper's default rules).
  bool model_ls_tags = true;
  /// Every access verifies the blocks the transaction touched (accessed
  /// block + replacement victims); every `full_scan_interval`-th access
  /// additionally sweeps the whole directory and every cache. 1 sweeps
  /// on every access (what the tiny explorer/fuzzer configs use); 0
  /// never sweeps periodically (the final_check still does). Touched-
  /// block checking is inductively complete — untouched blocks cannot
  /// change state — as long as the engine reports every victim; the
  /// periodic sweep is the belt-and-braces backstop for that assumption.
  std::uint64_t full_scan_interval = 1024;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(CheckerOptions options = {});

  /// Engine hook: called by MemorySystem::access after the transaction
  /// (state transitions and data application included) completes.
  void on_access(const MemorySystem& ms, NodeId node,
                 const AccessRequest& req, const AccessResult& result,
                 Cycles now);

  /// Engine hook: an L2 victim's directory entry was updated as part of
  /// the in-flight transaction; the block joins the set verified by the
  /// enclosing on_access.
  void note_touched(Addr block) { touched_.push_back(block); }

  /// Full directory × cache sweep; call at end of run (System does).
  void final_check(const MemorySystem& ms);

  [[nodiscard]] bool ok() const noexcept { return total_violations_ == 0; }
  /// Total violations observed (may exceed violations().size()).
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t accesses_checked() const noexcept {
    return accesses_;
  }
  /// Formatted messages of the retained violations.
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  /// Post-access snapshot of one block: the directory fields the tag
  /// model consumes plus per-node cache states as sets. The snapshot
  /// taken after access N is the ground-truth *pre*-state of access N+1.
  struct BlockSnapshot {
    bool tagged = false;
    NodeId last_reader = kInvalidNode;
    SharerSet shared;
    SharerSet modified;
    SharerSet lstemp;
    SharerSet owned;
  };

  void record(std::string invariant, std::string detail);

  void check_data_value(const AccessRequest& req, const AccessResult& result);
  /// Verifies one block's SWMR / directory-cache agreement / hysteresis
  /// / per-block L1-L2 inclusion and rebuilds its snapshot.
  void verify_block(const MemorySystem& ms, Addr block, const DirEntry& e);
  /// Incremental structure check: verifies the accessed block, every
  /// note_touched() victim, and (every full_scan_interval accesses) the
  /// whole directory; then checks exclusive-grant legality against `pre`
  /// (the accessed block's snapshot before this access).
  void check_structure(const MemorySystem& ms, NodeId node, Addr block,
                       bool is_read, const BlockSnapshot& pre);
  void full_scan(const MemorySystem& ms);
  void check_ls_tag_model(const MemorySystem& ms, NodeId node,
                          const AccessRequest& req, Addr block,
                          const BlockSnapshot& pre);

  [[nodiscard]] std::uint64_t shadow_load(Addr addr, unsigned size) const;
  void shadow_store(Addr addr, unsigned size, std::uint64_t value);

  CheckerOptions options_;
  std::uint64_t accesses_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<Violation> violations_;
  /// Reference memory, byte-granular. Bytes never stored read as zero,
  /// matching AddressSpace's lazily materialised chunks.
  std::unordered_map<Addr, std::uint8_t> shadow_;
  /// Post-access block snapshots (pre-state for the next access).
  std::unordered_map<Addr, BlockSnapshot> blocks_;
  /// Victim blocks reported for the in-flight access; drained by
  /// on_access.
  std::vector<Addr> touched_;
};

}  // namespace lssim::check

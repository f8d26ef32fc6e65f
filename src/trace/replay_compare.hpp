// Capture-once / replay-many protocol comparison.
//
// Every execution-driven protocol comparison pays the full workload cost
// (coroutine frames, workload arithmetic, RNG, heap data movement) once
// per protocol x directory cell, even though — for a fixed machine
// timing model — the *access stream* those runs consume is the same.
// This engine separates the two: capture_trace() executes the workload
// exactly once, recording the resolved access stream plus per-node
// trailing-compute gaps; ReplayCompareEngine then drives any number of
// CoherencePolicy x DirectoryPolicy combinations from that one in-memory
// Trace, reproducing the live scheduler's interleaving and time
// accounting cycle-for-cycle.
//
// Validity: replay is exact (bit-identical RunResult stats) whenever the
// workload's access stream does not depend on protocol-induced timing —
// same-protocol replays always agree; cross-protocol replays agree for
// feedback-insensitive workloads (no spin loops, no timing-dependent
// control flow). Workloads that spin (locks, barriers) replay the
// *recorded* spin count, so cross-protocol replays legitimately diverge
// from execution; compare_replay() makes that divergence explicit
// instead of silent. Headline figures stay execution-driven (see
// docs/PERFORMANCE.md "Capture once, replay many").
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "trace/trace.hpp"
#include "workloads/harness.hpp"

namespace lssim {

/// A recorded trace plus the ground-truth result of the run it was
/// recorded from.
struct CapturedTrace {
  Trace trace;
  RunResult executed;
};

/// Runs `build` once under `config` (seed as in run_experiment) with a
/// TraceRecorder attached, returning the trace — metadata filled in:
/// config hash, seed, per-node final compute gaps — and the executed
/// run's collected result. Throws std::invalid_argument for machines
/// whose access streams cannot be replayed (processor consistency:
/// buffered stores break the per-node completion-time gap encoding) and
/// std::runtime_error when the run hits the max_cycles watchdog (a
/// truncated stream must not masquerade as the workload).
[[nodiscard]] CapturedTrace capture_trace(const MachineConfig& config,
                                          const WorkloadBuilder& build,
                                          std::uint64_t seed = 1,
                                          const std::string& workload = "");

/// Thrown when a trace's recorded machine-config hash does not match the
/// machine it is being replayed on; what() lists both hashes.
class TraceConfigMismatch : public std::runtime_error {
 public:
  TraceConfigMismatch(std::uint64_t trace_hash, std::uint64_t machine_hash);

  std::uint64_t trace_hash;
  std::uint64_t machine_hash;
};

/// Replays one captured Trace against many protocol / directory
/// combinations. The trace (and the per-node program-order index built
/// at construction) is shared read-only across replays, so
/// replay_matrix() can fan cells out across host threads with zero
/// workload re-execution — each cell builds only its own MemorySystem
/// and Stats, per the executor's ownership rule. The one thing cells
/// share is a relaxed atomic table-size hint, which no result depends on.
///
/// The referenced Trace must outlive the engine.
class ReplayCompareEngine {
 public:
  /// `base` supplies the machine configuration every replay runs under
  /// (protocol/directory fields overridden per cell). Throws
  /// TraceConfigMismatch when the trace carries a config hash and it
  /// does not match `base`; throws std::out_of_range when a record
  /// names a node outside the machine and std::invalid_argument for
  /// processor-consistency machines (same limitation as capture).
  ReplayCompareEngine(const Trace& trace, const MachineConfig& base);

  /// Replays under the base config with `protocol` (and optionally
  /// `directory`) substituted.
  [[nodiscard]] RunResult replay(ProtocolKind protocol) const;
  [[nodiscard]] RunResult replay(ProtocolKind protocol,
                                 DirectoryKind directory) const;

  /// Replays under an explicit configuration — ablation knobs included.
  /// `config` must agree with the trace on the protocol-insensitive
  /// fields (TraceConfigMismatch otherwise).
  [[nodiscard]] RunResult replay_config(const MachineConfig& config) const;

  /// The full protocols x directories matrix, protocol-major (the
  /// driver's run order), fanned out across up to `jobs` host threads
  /// (<= 0 = all cores). Results are index-ordered: identical to a
  /// serial sweep for any jobs value.
  [[nodiscard]] std::vector<RunResult> replay_matrix(
      std::span<const ProtocolKind> protocols,
      std::span<const DirectoryKind> directories, int jobs = 1) const;

  /// Low-level single replay: accumulates into the caller's Stats and
  /// (optionally) reports the summed per-node completion clocks —
  /// replay_trace()'s historical total_cycles — and how many records
  /// were accounted in bulk (spin parking, below). Used by that wrapper;
  /// prefer replay()/replay_config().
  ///
  /// Spin parking: a run of repeated reads (a record that repeats its
  /// node's previous read: same address, size, site and tag) after an L1
  /// read hit is not replayed record by record when the machine is
  /// spin-parking eligible (MemorySystem::spin_parking_eligible). The
  /// node parks on the block and waits in the issue order at the run's
  /// last read. If it wins there, every read of the run was an L1 hit
  /// and is accounted in one step; if another node's transaction changes
  /// its copy first, only the reads that issued before that transaction
  /// (the live tie rule) are, and the rest replay one at a time. Results
  /// are bit-identical to replaying every record.
  RunResult replay_collect(const MachineConfig& config, Stats& stats,
                           Cycles* total_cycles = nullptr,
                           std::uint64_t* bulk_reads = nullptr) const;

  [[nodiscard]] const MachineConfig& base_config() const noexcept {
    return base_;
  }
  [[nodiscard]] const Trace& trace() const noexcept { return *trace_; }

 private:
  /// One pre-decoded access: the fields replay actually consumes, packed
  /// to 24 bytes so a multi-million-access stream walks the host memory
  /// system gently. Store values (wdata / expected) are omitted on
  /// purpose: replay runs the memory system in lean mode (no simulated
  /// data movement), so only the address, operation, stream tag, access
  /// size (classifier word masks) and site (ILS) matter — plus the
  /// compute gap separating the access from the node's previous
  /// completion.
  struct DecodedAccess {
    Addr addr = 0;
    Cycles gap = 0;
    std::uint32_t site = 0;
    MemOpKind op = MemOpKind::kRead;
    StreamTag tag = StreamTag::kApp;
    std::uint8_t size = 0;
    /// A read repeating its node's previous record (address, size, site,
    /// tag): a candidate for bulk accounting.
    bool repeat = false;
  };
  static_assert(sizeof(DecodedAccess) == 24);

  const Trace* trace_;
  MachineConfig base_;
  /// Per-node program-order access streams — precomputed once, shared
  /// read-only by every replay.
  std::vector<std::vector<DecodedAccess>> streams_;
  /// Largest directory/oracle population a finished cell reached: later
  /// cells pre-size their tables to it instead of regrowing from 256
  /// slots. Cells may run on several threads; a lost update only loses a
  /// hint, and table size never changes a result.
  mutable std::atomic<std::size_t> table_blocks_{0};
};

/// Field-by-field comparison of an executed run against its replay: one
/// message per differing RunResult field, named by its manifest key
/// ("exec_cycles: executed 1234, replayed 1200", "time.busy: ...",
/// "oracle_total.ls_writes: ..."), empty when the runs agree. Covers
/// every row of kRunResultFields (workloads/result_fields.hpp), which is
/// every RunResult member.
[[nodiscard]] std::vector<std::string> compare_replay(
    const RunResult& executed, const RunResult& replayed);

}  // namespace lssim

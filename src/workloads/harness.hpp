// Experiment harness: run a workload under a machine configuration and
// collect the metrics the paper reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/system.hpp"
#include "sim/config.hpp"
#include "stats/ls_oracle.hpp"
#include "stats/stats.hpp"

namespace lssim {

/// Everything a figure/table needs from one simulation run.
struct RunResult {
  ProtocolKind protocol = ProtocolKind::kBaseline;
  DirectoryKind directory = DirectoryKind::kFullMap;
  InterconnectKind interconnect = InterconnectKind::kNetwork;
  Cycles exec_time = 0;       ///< Wall clock: latest processor time.
  TimeBreakdown time;         ///< Summed over processors.
  std::array<std::uint64_t, kNumMsgClasses> traffic{};
  std::uint64_t traffic_total = 0;
  std::array<std::uint64_t, kNumHomeStates> read_miss_home{};
  std::uint64_t global_read_misses = 0;
  std::uint64_t global_write_actions = 0;
  std::uint64_t ownership_acquisitions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t single_invalidations = 0;
  std::uint64_t eliminated_acquisitions = 0;
  std::uint64_t update_transactions = 0;  ///< Write-update (Dragon) writes.
  std::uint64_t updates_sent = 0;         ///< Remote copies they refreshed.
  std::uint64_t data_misses = 0;
  std::uint64_t coherence_misses = 0;
  std::uint64_t false_sharing_misses = 0;
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t blocks_tagged = 0;
  std::uint64_t blocks_detagged = 0;
  std::uint64_t dir_entry_evictions = 0;
  LsOracleCounters oracle_total;
  std::array<LsOracleCounters, kNumStreamTags> oracle_by_tag{};

  /// Member-wise equality. kRunResultFields (workloads/result_fields.hpp)
  /// has one row per value; its test compares through this operator, so
  /// a member added without a row fails there.
  bool operator==(const RunResult&) const = default;

  /// Average invalidations per global write action (paper §5.4 quotes
  /// ~1.4 for OLTP).
  [[nodiscard]] double invalidations_per_write() const noexcept {
    return global_write_actions == 0
               ? 0.0
               : static_cast<double>(invalidations) /
                     static_cast<double>(global_write_actions);
  }
};

/// Snapshot of a finished System into a RunResult.
[[nodiscard]] RunResult collect(System& sys);

/// As collect(System&), from the pieces a System owns — used by trace
/// replay, which drives a MemorySystem without a System around it.
[[nodiscard]] RunResult collect(const MachineConfig& config,
                                const Stats& stats, MemorySystem& memory,
                                Cycles exec_time);

/// Builds the workload onto `sys` (allocate shared data, spawn programs).
using WorkloadBuilder = std::function<void(System&)>;

/// Creates a System for `config`, builds the workload, runs it to
/// completion and returns the collected result.
[[nodiscard]] RunResult run_experiment(const MachineConfig& config,
                                       const WorkloadBuilder& build,
                                       std::uint64_t seed = 1);

/// Called on the finished System before it is destroyed; used by the
/// driver to capture telemetry (metrics snapshot, coherence trace).
using RunInspector = std::function<void(System&)>;

/// As run_experiment, additionally invoking `inspect` (when non-null)
/// after the run while the System is still alive.
[[nodiscard]] RunResult run_experiment(const MachineConfig& config,
                                       const WorkloadBuilder& build,
                                       std::uint64_t seed,
                                       const RunInspector& inspect);

/// Runs `build` once per protocol in `kinds` (config's kind overridden
/// per run), fanning the independent simulations out across up to `jobs`
/// host threads (<= 0 = all cores; see exec/parallel_executor.hpp).
/// Each run gets its own System — own Stats, MetricsRegistry, RNG — and
/// results come back in `kinds` order, so any jobs value produces
/// results identical to a serial sweep. `build` is invoked concurrently
/// and must not mutate captured state.
[[nodiscard]] std::vector<RunResult> run_experiments(
    const MachineConfig& config, const WorkloadBuilder& build,
    std::span<const ProtocolKind> kinds, std::uint64_t seed = 1,
    int jobs = 1);

}  // namespace lssim

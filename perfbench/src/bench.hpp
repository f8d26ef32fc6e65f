// The lssim benchmark: shared pieces of the untraced and traced runs.
//
// Every layer is measured from outside the simulator, by timing calls into
// its public functions; nothing under src/ knows the benchmark exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lssim.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point begin,
                                            Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Median (mean of the two middle values for an even count); 0 for none.
[[nodiscard]] double median(std::vector<double> values);

/// A timing's tail: the highest whole percentile (nearest rank) that leaves
/// at least kTailBeyond samples strictly beyond it.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  int percentile = 0;  ///< 100 (the maximum) below 11 samples; 0 for none.
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values);

/// Metric names start with a letter or digit and hold at most 64 of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in print order; add() throws std::logic_error on a bad name.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<Metric> items_;
};

/// FNV-1a over every field of a RunResult.
[[nodiscard]] std::uint64_t digest(const lssim::RunResult& result);

/// The correctness gate behind `failed`. A simulation's RunResult must
/// equal the digest recorded for its key at the reference commit; a key
/// with no recorded digest must instead reproduce itself on a repeat.
/// Agreement checks (replay vs live, re-issue vs live, artifacts) are
/// counted apart from simulations, so error_rate stays wrong simulations
/// over simulations. Every mismatch is named on stderr.
class Checker {
 public:
  using Rerun = std::function<lssim::RunResult()>;

  /// Loads "key digest" lines. Returns false when the file is unreadable.
  bool load_digests(const std::string& path);

  /// Checks one simulation's result under `key`. `rerun` repeats the same
  /// simulation for the determinism fallback.
  bool check(const std::string& key, const lssim::RunResult& result,
             const Rerun& rerun);

  /// Counts one agreement check (a replay or re-issue agreement, an
  /// artifact check); `problems` empty means it passed.
  bool expect(const std::string& what,
              const std::vector<std::string>& problems);

  /// Repeats once every unrecorded simulation that ran only once.
  void repeat_unrecorded();

  /// Perturbs the next checked result (self-test of the gate).
  void inject_mismatch() noexcept { inject_ = true; }

  /// Simulations checked.
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  /// Simulations whose results were wrong.
  [[nodiscard]] std::uint64_t wrong() const noexcept { return wrong_; }
  [[nodiscard]] double error_rate() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(wrong_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t failed_checks() const noexcept {
    return failed_checks_;
  }
  /// Every failure: wrong simulations plus failed agreement checks.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return wrong_ + failed_checks_;
  }
  [[nodiscard]] std::size_t recorded() const noexcept {
    return recorded_.size();
  }

 private:
  struct Seen {
    std::uint64_t digest = 0;
    int runs = 0;
    Rerun rerun;
  };

  std::unordered_map<std::string, std::uint64_t> recorded_;
  std::map<std::string, Seen> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t failed_checks_ = 0;
  bool inject_ = false;
};

// --- workloads ------------------------------------------------------------

/// One deterministic simulation: a machine, a workload build and the
/// processor seed. `key` names it in the digest table.
struct Sim {
  std::string key;
  lssim::MachineConfig cfg;
  lssim::WorkloadBuilder build;
  std::uint64_t seed = 1;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The per-simulation seeds a run derives from its workload seed.
[[nodiscard]] std::vector<std::uint64_t> sim_seeds(
    std::uint64_t workload_seed);

/// The live simulations of one round of `workload` at `sim_seed`. For
/// replay_oltp this is the single capture run.
[[nodiscard]] std::vector<Sim> round_sims(const std::string& workload,
                                          std::uint64_t sim_seed);

/// Digest key of replaying `capture`'s trace under `protocol`.
[[nodiscard]] std::string replay_key(const Sim& capture,
                                     lssim::ProtocolKind protocol);

/// Host time of one live simulation, split at the public calls.
struct LiveRun {
  double construct_s = 0.0;  ///< System constructor.
  double build_s = 0.0;      ///< build_* workload builder.
  double run_s = 0.0;        ///< System::run.
  double collect_s = 0.0;    ///< collect().
  double export_s = 0.0;     ///< Telemetry artifacts to memory.
  std::uint64_t events = 0;         ///< Coherence-trace spans + instants.
  std::uint64_t audit_records = 0;  ///< Tag-decision audit records.
  std::vector<std::string> artifact_problems;
  lssim::RunResult result;
};

/// Runs `sim` once. `observer`, when set, watches every access.
[[nodiscard]] LiveRun run_live(const Sim& sim,
                               const lssim::System::AccessObserver& observer =
                                   nullptr);

/// Host time of one capture / save / load / engine round of replay_oltp.
struct ReplaySetup {
  double capture_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double engine_s = 0.0;
  std::uint64_t bytes = 0;
};

/// Captures `capture`, round-trips the trace through save/load in memory,
/// builds the engine, and replays every registered protocol. Checks each
/// cell and the same-protocol agreement. `cell` receives each replay's
/// host seconds and accesses.
ReplaySetup run_replay_round(
    const Sim& capture, Checker& checker,
    const std::function<void(double seconds, std::uint64_t accesses)>& cell);

/// The untraced run: every end-to-end metric.
[[nodiscard]] MetricList run_untraced(const std::string& workload,
                                      std::uint64_t workload_seed,
                                      double seconds, Checker& checker);

/// The traced run: every per-layer metric.
[[nodiscard]] MetricList run_traced(const std::string& workload,
                                    std::uint64_t workload_seed,
                                    double seconds, Checker& checker);

/// Prints "key digest" for every simulation the given workload seeds run.
void record_digests(const std::string& workload, std::uint64_t first_seed,
                    std::uint64_t last_seed);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Moves the process round-robin over the CPUs it was allowed at
/// construction, one CPU per timed round. Each vCPU of a shared host runs
/// at its own, changing speed; left to the kernel, a run can stay on one
/// fast or one slow vCPU for most of its rounds.
class CpuRotation {
 public:
  CpuRotation();
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace perfbench

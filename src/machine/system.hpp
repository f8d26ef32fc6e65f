// Whole-machine assembly and the min-time scheduler.
//
// A System owns the simulated address space, the shared heap, the memory
// system (caches + directory + network) and one Processor per node.
// Workload programs are SimTask<void> coroutines spawned onto processors;
// run() interleaves them in global time order: it always executes the
// pending access of the processor whose local clock is earliest, which
// realises a sequentially consistent execution with stall-on-L2-miss
// (paper §4.2).
//
// Spin parking: after a failed Processor::spin_until probe whose block
// stays in the node's L1, run() takes the node out of the issue order
// and the MemorySystem watches that copy. When another node's
// transaction changes it, run() accounts in one step every probe that
// would have issued before that transaction, then re-issues. Statistics
// are unchanged. Parking is off with access observers or
// MemorySystem::spin_parking_eligible() false.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/protocol.hpp"
#include "machine/processor.hpp"
#include "mem/address_space.hpp"
#include "mem/shared_heap.hpp"
#include "sim/config.hpp"
#include "sim/task.hpp"
#include "stats/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace lssim {

class System {
 public:
  explicit System(const MachineConfig& config, std::uint64_t seed = 1);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Assigns `program` to processor `node`. At most one program per
  /// processor may be active; spawn all programs before run().
  void spawn(NodeId node, SimTask<void> program);

  /// Runs all spawned programs to completion and finalizes statistics.
  void run();

  [[nodiscard]] Processor& proc(NodeId node) noexcept {
    return *procs_[node];
  }
  [[nodiscard]] int num_procs() const noexcept {
    return static_cast<int>(procs_.size());
  }

  [[nodiscard]] AddressSpace& space() noexcept { return space_; }
  [[nodiscard]] SharedHeap& heap() noexcept { return heap_; }
  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] MemorySystem& memory() noexcept { return memory_; }
  [[nodiscard]] Telemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }

  /// Wall-clock execution time: the latest processor local time.
  [[nodiscard]] Cycles exec_time() const noexcept;

  /// True when run() stopped on the max_cycles watchdog rather than on
  /// program completion.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// Spin probes accounted in bulk while parked (also in every access
  /// statistic).
  [[nodiscard]] std::uint64_t bulk_probes() const noexcept {
    return bulk_probes_;
  }

  /// The attached invariant checker when config.check_invariants is on,
  /// else null. Violations accumulate there across the whole run.
  [[nodiscard]] const check::InvariantChecker* invariant_checker()
      const noexcept {
    return checker_.get();
  }

  /// Keeps a workload context alive for the duration of the simulation
  /// (programs capture references into it).
  void retain(std::shared_ptr<void> context) {
    retained_.push_back(std::move(context));
  }

  /// Observer invoked for every executed access (node, request, issue
  /// time, latency). Used by the trace recorder and telemetry probes;
  /// attach before run(). Observers COMPOSE: each added observer is
  /// invoked in registration order, so a recorder and a telemetry probe
  /// can watch the same run without silently dropping each other. Any
  /// observer turns spin parking off: it sees every probe.
  using AccessObserver =
      std::function<void(NodeId, const AccessRequest&, Cycles, Cycles)>;
  void add_access_observer(AccessObserver observer) {
    observers_.push_back(std::move(observer));
  }

 private:
  /// Accounts `proc`'s parked probes issued before `bound`, then unparks.
  void unpark(Processor& proc, Cycles bound);

  MachineConfig cfg_;
  Stats stats_;
  AddressSpace space_;
  SharedHeap heap_;
  Telemetry telemetry_;  ///< Must outlive memory_ (handles point into it).
  MemorySystem memory_;
  /// Owned invariant checker (config.check_invariants); attached to
  /// memory_ right after construction, detached never — memory_ makes no
  /// hook calls during destruction.
  std::unique_ptr<check::InvariantChecker> checker_;
  std::vector<std::unique_ptr<Processor>> procs_;
  std::vector<SimTask<void>> programs_;  // Index-aligned with procs_.
  std::vector<std::shared_ptr<void>> retained_;
  std::vector<AccessObserver> observers_;
  // System-level metric handles (only valid when telemetry.metrics is on).
  HistogramHandle read_latency_h_;
  HistogramHandle write_latency_h_;
  std::vector<CounterHandle> node_accesses_;
  GaugeHandle exec_time_g_;
  bool ran_ = false;
  bool timed_out_ = false;
  std::uint64_t bulk_probes_ = 0;
};

}  // namespace lssim

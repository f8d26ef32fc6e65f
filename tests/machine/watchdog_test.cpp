// The max_cycles watchdog: livelocked programs become diagnosable.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <vector>

#include "../coherence_check.hpp"
#include "machine/system.hpp"
#include "mem/shared_heap.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg() {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{256, 1, 16};
  cfg.l2 = CacheConfig{1024, 1, 16};
  return cfg;
}

SimTask<void> spin_forever(System& sys, NodeId id, Addr flag) {
  Processor& proc = sys.proc(id);
  for (;;) {
    const std::uint64_t v = co_await proc.read(flag, 8);
    if (v != 0) break;  // Never: nobody writes the flag.
    proc.compute(10);
  }
}

TEST(Watchdog, StopsLivelockedRun) {
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 100000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  sys.spawn(0, spin_forever(sys, 0, flag));
  sys.run();  // Must return despite the infinite spin.
  EXPECT_TRUE(sys.timed_out());
  EXPECT_GT(sys.exec_time(), 100000u);
  EXPECT_LT(sys.exec_time(), 200000u);  // Stopped promptly.
}

TEST(Watchdog, CompletedRunIsNotTimedOut) {
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 1000000;
  System sys(cfg);
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(0, [](System& s, Addr addr) -> SimTask<void> {
    co_await s.proc(0).write(addr, 1, 8);
  }(sys, a));
  sys.run();
  EXPECT_FALSE(sys.timed_out());
}

TEST(Watchdog, DisabledByDefault) {
  MachineConfig cfg = tiny_cfg();
  EXPECT_EQ(cfg.max_cycles, 0u);
}

TEST(Watchdog, OtherProgramsKeepStateAtStop) {
  // Two spinners: the watchdog stops the run; statistics remain readable
  // and consistent.
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 50000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  sys.spawn(0, spin_forever(sys, 0, flag));
  sys.spawn(1, spin_forever(sys, 1, flag));
  sys.run();
  EXPECT_TRUE(sys.timed_out());
  EXPECT_GT(sys.stats().accesses, 100u);
  EXPECT_EQ(coherence_violations(sys.memory()), kNoViolations);
}

// ---- spin_until spinners: parked probes at the watchdog -----------------
//
// A spin_until spinner whose flag stays in L1 is parked (System::run); the
// watchdog must still stop the run exactly where it would have stopped
// with every probe issued. An access observer turns parking off, so each
// case compares an unobserved run against an observed one.

struct WatchdogOutcome {
  bool timed_out = false;
  Cycles exec_time = 0;
  std::vector<Cycles> clocks;  ///< Per processor: time, busy, read stall.
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  /// sys.read_latency / sys.write_latency: samples and mean.
  std::uint64_t read_samples = 0;
  double read_mean = 0;
  std::uint64_t write_samples = 0;
  double write_mean = 0;
  std::uint64_t messages = 0;
  std::uint64_t bulk_probes = 0;
};

bool operator==(const WatchdogOutcome& a, const WatchdogOutcome& b) {
  return a.timed_out == b.timed_out && a.exec_time == b.exec_time &&
         a.clocks == b.clocks && a.accesses == b.accesses &&
         a.l1_hits == b.l1_hits && a.read_samples == b.read_samples &&
         a.read_mean == b.read_mean && a.write_samples == b.write_samples &&
         a.write_mean == b.write_mean && a.messages == b.messages;
}

std::ostream& operator<<(std::ostream& os, const WatchdogOutcome& o) {
  return os << "timed_out=" << o.timed_out << " exec=" << o.exec_time
            << " accesses=" << o.accesses << " l1_hits=" << o.l1_hits
            << " bulk=" << o.bulk_probes;
}

SimTask<void> spin_until_set(System& sys, NodeId id, Addr flag,
                             Cycles gap_lo, Cycles gap_hi) {
  co_await sys.proc(id).spin_until(flag, 1, gap_lo, gap_hi, 8);
}

/// Never parks: a plain read/write loop on its own word.
SimTask<void> busy_forever(System& sys, NodeId id, Addr word) {
  Processor& proc = sys.proc(id);
  for (;;) {
    const std::uint64_t v = co_await proc.read(word, 8);
    co_await proc.write(word, v + 1, 8);
    proc.compute(7);
  }
}

SimTask<void> work_then_stop(System& sys, NodeId id, Addr word, int rounds) {
  Processor& proc = sys.proc(id);
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t v = co_await proc.read(word, 8);
    co_await proc.write(word, v + 1, 8);
  }
}

using WatchdogScenario = std::function<void(System&)>;

WatchdogOutcome run_watchdog(const MachineConfig& cfg,
                             const WatchdogScenario& spawn, bool observed) {
  MachineConfig metered = cfg;
  metered.telemetry.metrics = true;  // For the latency histograms.
  System sys(metered);
  spawn(sys);
  if (observed) {
    sys.add_access_observer([](NodeId, const AccessRequest&, Cycles,
                               Cycles) {});
  }
  sys.run();
  WatchdogOutcome out;
  out.timed_out = sys.timed_out();
  out.exec_time = sys.exec_time();
  for (int n = 0; n < sys.num_procs(); ++n) {
    const TimeBreakdown& tb = sys.stats().per_proc[static_cast<std::size_t>(n)];
    out.clocks.insert(out.clocks.end(),
                      {sys.proc(static_cast<NodeId>(n)).time(), tb.busy,
                       tb.read_stall, tb.write_stall});
  }
  out.accesses = sys.stats().accesses;
  out.l1_hits = sys.stats().l1_hits;
  const MetricsSnapshot snap = sys.telemetry().registry().snapshot();
  const HistogramData& reads = *snap.histogram("sys.read_latency");
  const HistogramData& writes = *snap.histogram("sys.write_latency");
  out.read_samples = reads.samples;
  out.read_mean = reads.mean();
  out.write_samples = writes.samples;
  out.write_mean = writes.mean();
  out.messages = sys.stats().messages_total();
  out.bulk_probes = sys.bulk_probes();
  return out;
}

/// Runs `spawn` parked and observed; the two must agree. Returns the
/// parked run's outcome.
WatchdogOutcome expect_same_stop(const MachineConfig& cfg,
                                 const WatchdogScenario& spawn) {
  const WatchdogOutcome parked = run_watchdog(cfg, spawn, false);
  const WatchdogOutcome observed = run_watchdog(cfg, spawn, true);
  EXPECT_EQ(parked, observed) << "max_cycles=" << cfg.max_cycles;
  EXPECT_EQ(observed.bulk_probes, 0u);
  return parked;
}

TEST(Watchdog, LoneParkedSpinnerStopsAtTheLimit) {
  // The only live node is parked: nothing can wake it, and the watchdog
  // must account its probes up to the limit.
  for (const Cycles gap_hi : {Cycles{10}, Cycles{25}}) {
    MachineConfig cfg = tiny_cfg();
    cfg.max_cycles = 100000;
    const WatchdogOutcome out = expect_same_stop(cfg, [gap_hi](System& sys) {
      const Addr flag = sys.heap().alloc(8, 8);
      sys.spawn(0, spin_until_set(sys, 0, flag, 10, gap_hi));
    });
    EXPECT_TRUE(out.timed_out);
    EXPECT_GT(out.exec_time, 100000u);
    EXPECT_LT(out.exec_time, 100100u);
    EXPECT_GT(out.bulk_probes, 1000u);
  }
}

TEST(Watchdog, EveryLiveNodeParkedAfterTheWorkersFinish) {
  // Two spinners (fixed and drawn gaps) outlive two finite workers, so
  // every live node ends up parked before the limit.
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 60000;
  const WatchdogOutcome out = expect_same_stop(cfg, [](System& sys) {
    const Addr flag = sys.heap().alloc(8, 8);
    const Addr w2 = sys.heap().alloc(64, 64);
    const Addr w3 = sys.heap().alloc(64, 64);
    sys.spawn(0, spin_until_set(sys, 0, flag, 10, 10));
    sys.spawn(1, spin_until_set(sys, 1, flag, 6, 12));
    sys.spawn(2, work_then_stop(sys, 2, w2, 50));
    sys.spawn(3, work_then_stop(sys, 3, w3, 80));
  });
  EXPECT_TRUE(out.timed_out);
  EXPECT_GT(out.bulk_probes, 1000u);
}

TEST(Watchdog, ParkedSpinnersBesideARunningNode) {
  // A node that never parks carries the run to the limit while the
  // spinners stay parked.
  MachineConfig cfg = tiny_cfg();
  cfg.max_cycles = 50000;
  const WatchdogOutcome out = expect_same_stop(cfg, [](System& sys) {
    const Addr flag = sys.heap().alloc(8, 8);
    const Addr word = sys.heap().alloc(64, 64);
    sys.spawn(0, spin_until_set(sys, 0, flag, 10, 10));
    sys.spawn(1, busy_forever(sys, 1, word));
    sys.spawn(2, spin_until_set(sys, 2, flag, 5, 9));
  });
  EXPECT_TRUE(out.timed_out);
  EXPECT_GT(out.bulk_probes, 1000u);
}

TEST(Watchdog, ParkedProbesAtEveryLimitOffset) {
  // Sweep the limit across a probe period so some limit lands exactly on
  // a probe's issue time: probes at the limit issue, later ones do not.
  for (Cycles limit = 20000; limit < 20040; ++limit) {
    MachineConfig cfg = tiny_cfg();
    cfg.max_cycles = limit;
    const WatchdogOutcome out = expect_same_stop(cfg, [](System& sys) {
      const Addr flag = sys.heap().alloc(8, 8);
      const Addr word = sys.heap().alloc(64, 64);
      sys.spawn(0, spin_until_set(sys, 0, flag, 10, 10));
      sys.spawn(1, spin_until_set(sys, 1, flag, 3, 3));
      sys.spawn(2, busy_forever(sys, 2, word));
    });
    EXPECT_TRUE(out.timed_out);
    EXPECT_GT(out.bulk_probes, 0u);
  }
}

}  // namespace
}  // namespace lssim

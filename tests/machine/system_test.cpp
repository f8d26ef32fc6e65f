// System scheduler + Processor awaitables: end-to-end execution of small
// coroutine programs over the simulated machine.
#include "machine/system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../coherence_check.hpp"
#include "mem/shared_heap.hpp"
#include "workloads/micro.hpp"

namespace lssim {
namespace {

MachineConfig tiny_cfg(ProtocolKind kind = ProtocolKind::kBaseline) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{64, 1, 16};
  cfg.l2 = CacheConfig{256, 1, 16};
  cfg.protocol.kind = kind;
  return cfg;
}

SimTask<void> writer_program(System& sys, NodeId id, Addr addr,
                             std::uint64_t value) {
  Processor& proc = sys.proc(id);
  co_await proc.write(addr, value, 8);
}

TEST(System, RunsSimplePrograms) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(0, writer_program(sys, 0, a, 99));
  sys.run();
  EXPECT_EQ(sys.space().load(a, 8), 99u);
  EXPECT_GT(sys.exec_time(), 0u);
}

SimTask<void> incrementer(System& sys, NodeId id, Addr addr, int times) {
  Processor& proc = sys.proc(id);
  for (int i = 0; i < times; ++i) {
    (void)co_await proc.fetch_add(addr, 1, 8);
    proc.compute(10);
  }
}

TEST(System, AtomicIncrementsFromAllProcessorsSumExactly) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  for (int n = 0; n < 4; ++n) {
    sys.spawn(static_cast<NodeId>(n),
              incrementer(sys, static_cast<NodeId>(n), a, 100));
  }
  sys.run();
  EXPECT_EQ(sys.space().load(a, 8), 400u);
}

TEST(System, TimeBreakdownAccountsAllCycles) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(0, incrementer(sys, 0, a, 50));
  sys.run();
  const TimeBreakdown tb = sys.stats().time_total();
  EXPECT_EQ(tb.total(), sys.proc(0).time());
  EXPECT_GT(tb.busy, 0u);
  EXPECT_GT(tb.write_stall, 0u);
}

TEST(System, DeterministicAcrossRuns) {
  auto run_once = [] {
    System sys(tiny_cfg(), /*seed=*/5);
    const Addr a = sys.heap().alloc(8, 8);
    for (int n = 0; n < 4; ++n) {
      sys.spawn(static_cast<NodeId>(n),
                incrementer(sys, static_cast<NodeId>(n), a, 200));
    }
    sys.run();
    return sys.exec_time();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(System, MinTimeSchedulingInterleavesFairly) {
  // Two processors hammer disjoint counters; neither should finish
  // wildly earlier (same work, same latencies).
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  const Addr b = sys.heap().alloc(8, 8);
  sys.spawn(0, incrementer(sys, 0, a, 100));
  sys.spawn(1, incrementer(sys, 1, b, 100));
  sys.run();
  const double t0 = static_cast<double>(sys.proc(0).time());
  const double t1 = static_cast<double>(sys.proc(1).time());
  EXPECT_LT(std::abs(t0 - t1) / std::max(t0, t1), 0.2);
}

SimTask<void> stream_tagger(System& sys, NodeId id, Addr addr) {
  Processor& proc = sys.proc(id);
  proc.set_stream(StreamTag::kOs);
  (void)co_await proc.read(addr, 8);
  co_await proc.write(addr, 1, 8);
  proc.set_stream(StreamTag::kApp);
}

TEST(System, StreamTagsReachTheOracle) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(2, stream_tagger(sys, 2, a));
  sys.run();
  const LoadStoreOracle& oracle = sys.memory().oracle();
  EXPECT_EQ(oracle.counters(StreamTag::kOs).global_writes, 1u);
  EXPECT_EQ(oracle.counters(StreamTag::kOs).ls_writes, 1u);
  EXPECT_EQ(oracle.counters(StreamTag::kApp).global_writes, 0u);
}

TEST(System, ValuePropagationBetweenProcessors) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  std::uint64_t got = 0;
  // Writer runs at time 0; reader first does compute so its read comes
  // after the write in simulated time.
  sys.spawn(0, writer_program(sys, 0, a, 1234));
  sys.spawn(1, [](System& s, Addr addr, std::uint64_t* out) -> SimTask<void> {
    Processor& proc = s.proc(1);
    proc.compute(10000);
    *out = co_await proc.read(addr, 8);
  }(sys, a, &got));
  sys.run();
  EXPECT_EQ(got, 1234u);
}

TEST(System, ExecTimeIsMaxProcessorTime) {
  System sys(tiny_cfg());
  const Addr a = sys.heap().alloc(8, 8);
  sys.spawn(0, incrementer(sys, 0, a, 10));
  sys.spawn(3, incrementer(sys, 3, a, 1000));
  sys.run();
  EXPECT_EQ(sys.exec_time(),
            std::max(sys.proc(0).time(), sys.proc(3).time()));
}

TEST(System, RejectsInvalidConfig) {
  MachineConfig cfg = tiny_cfg();
  cfg.num_nodes = 99;
  EXPECT_THROW(System sys(cfg), std::invalid_argument);
}

TEST(System, CoherenceInvariantsHoldAfterRun) {
  System sys(tiny_cfg(ProtocolKind::kLs));
  const Addr a = sys.heap().alloc(8, 8);
  for (int n = 0; n < 4; ++n) {
    sys.spawn(static_cast<NodeId>(n),
              incrementer(sys, static_cast<NodeId>(n), a, 300));
  }
  sys.run();
  EXPECT_EQ(coherence_violations(sys.memory()), kNoViolations);
  EXPECT_EQ(sys.space().load(a, 8), 1200u);
}

TEST(SystemIntegration, AccessLatencyMetricsPopulated) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{8192, 1, 16};
  cfg.protocol.kind = ProtocolKind::kBaseline;
  cfg.telemetry.metrics = true;
  System sys(cfg);
  build_pingpong(sys, PingPongParams{.rounds = 100, .counters = 2});
  sys.run();
  const MetricsSnapshot snap = sys.telemetry().registry().snapshot();
  const HistogramData* reads = snap.histogram("sys.read_latency");
  const HistogramData* writes = snap.histogram("sys.write_latency");
  ASSERT_NE(reads, nullptr);
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(reads->samples, 100u);
  EXPECT_GT(writes->samples, 100u);
  // Hits land in bucket 0; misses around 100-500 cycles in buckets 6-9.
  EXPECT_GT(reads->percentile(0.99), 60u);
  // One sample per access, and one per-node access count each.
  EXPECT_EQ(reads->samples + writes->samples, sys.stats().accesses);
  EXPECT_EQ(snap.counter_total("sys.accesses"), sys.stats().accesses);
}

}  // namespace
}  // namespace lssim

// IssueScheduler: the tournament tree picks exactly what the ascending
// strict-< scan it replaced picked, and System issues in (time, id) order.
#include "machine/issue_scheduler.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "../coherence_check.hpp"
#include "machine/system.hpp"
#include "sim/rng.hpp"

namespace lssim {
namespace {

/// The reference: an ascending scan with strict <, so ties go to the
/// lowest node id. nullopt when every node is retired.
std::optional<std::size_t> scan_winner(const std::vector<Cycles>& keys) {
  std::optional<std::size_t> best;
  for (std::size_t n = 0; n < keys.size(); ++n) {
    if (keys[n] == IssueScheduler::kRetired) continue;
    if (!best || keys[n] < keys[*best]) best = n;
  }
  return best;
}

void expect_matches_scan(const IssueScheduler& sched,
                         const std::vector<Cycles>& keys) {
  const std::optional<std::size_t> best = scan_winner(keys);
  ASSERT_EQ(sched.done(), !best.has_value());
  if (best) {
    ASSERT_EQ(sched.winner(), *best);
    ASSERT_EQ(sched.winner_time(), keys[*best]);
  }
}

class IssueSchedulerRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IssueSchedulerRandomTest, AgreesWithAscendingScan) {
  const auto nodes = static_cast<std::size_t>(GetParam());
  IssueScheduler sched(nodes);
  std::vector<Cycles> keys(nodes, IssueScheduler::kRetired);
  expect_matches_scan(sched, keys);
  Rng rng(0x5eed + nodes);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t action = rng.next_below(10);
    if (action < 5 && !sched.done()) {
      // What both schedulers do: the winner issues and moves forward by
      // a small latency, so it often lands on another node's time.
      const std::size_t n = sched.winner();
      keys[n] += rng.next_below(4);
      sched.update(n, keys[n]);
    } else if (action < 9) {
      // Arbitrary update from a narrow range: many equal-time ties.
      const std::size_t n = rng.next_below(nodes);
      keys[n] = rng.next_below(8);
      sched.update(n, keys[n]);
    } else {
      const std::size_t n = rng.next_below(nodes);
      keys[n] = IssueScheduler::kRetired;
      sched.update(n, keys[n]);
    }
    expect_matches_scan(sched, keys);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IssueSchedulerRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 63, 64, 65, 128,
                                           255, 256));

TEST(IssueScheduler, StartsRetiredAndDrainsToDone) {
  IssueScheduler sched(5);
  EXPECT_TRUE(sched.done());
  for (std::size_t n = 0; n < 5; ++n) sched.update(n, 7);
  for (std::size_t n = 0; n < 5; ++n) {
    ASSERT_FALSE(sched.done());
    EXPECT_EQ(sched.winner(), n);  // All tied: ascending id order.
    EXPECT_EQ(sched.winner_time(), 7u);
    sched.update(n, IssueScheduler::kRetired);
  }
  EXPECT_TRUE(sched.done());
}

MachineConfig machine(int nodes) {
  MachineConfig cfg;
  cfg.num_nodes = nodes;
  cfg.directory_scheme = nodes > kFullMapNodes ? DirectoryKind::kLimitedPtr
                                               : DirectoryKind::kFullMap;
  cfg.l1 = CacheConfig{256, 1, 16};
  cfg.l2 = CacheConfig{1024, 1, 16};
  return cfg;
}

SimTask<void> private_reads(System& sys, NodeId id, Addr addr, int times) {
  Processor& proc = sys.proc(id);
  for (int i = 0; i < times; ++i) {
    (void)co_await proc.read(addr, 8);
    proc.compute(3);
  }
}

TEST(IssueSchedulerSystem, EqualClocksIssueInAscendingIdOrder) {
  constexpr int kNodes = 65;
  System sys(machine(kNodes));
  std::vector<std::pair<Cycles, NodeId>> issued;
  sys.add_access_observer(
      [&issued](NodeId node, const AccessRequest&, Cycles at, Cycles) {
        issued.emplace_back(at, node);
      });
  for (int n = 0; n < kNodes; ++n) {
    const Addr addr = sys.heap().alloc(64, 64);
    sys.spawn(static_cast<NodeId>(n),
              private_reads(sys, static_cast<NodeId>(n), addr, 20));
  }
  sys.run();
  ASSERT_EQ(issued.size(), static_cast<std::size_t>(kNodes) * 20);
  // Every clock starts at 0: the first round is nodes 0..N-1 in order.
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(issued[static_cast<std::size_t>(n)],
              std::make_pair(Cycles{0}, static_cast<NodeId>(n)));
  }
  // Identical programs keep clocks tied; the whole run issues in strictly
  // increasing (time, id) order.
  for (std::size_t i = 1; i < issued.size(); ++i) {
    EXPECT_LT(issued[i - 1], issued[i]) << "access " << i;
  }
}

SimTask<void> spin_forever(System& sys, NodeId id, Addr flag) {
  Processor& proc = sys.proc(id);
  for (;;) {
    const std::uint64_t v = co_await proc.read(flag, 8);
    if (v != 0) break;  // Never: nobody writes the flag.
    proc.compute(10);
  }
}

TEST(IssueSchedulerSystem, WatchdogStopsLivelockAt128Nodes) {
  constexpr int kNodes = 128;
  MachineConfig cfg = machine(kNodes);
  cfg.max_cycles = 20000;
  System sys(cfg);
  const Addr flag = sys.heap().alloc(8, 8);
  std::vector<std::uint64_t> per_node(kNodes, 0);
  Cycles last_issue = 0;
  sys.add_access_observer(
      [&](NodeId node, const AccessRequest&, Cycles at, Cycles) {
        ++per_node[node];
        last_issue = at;
      });
  for (int n = 0; n < kNodes; ++n) {
    sys.spawn(static_cast<NodeId>(n),
              spin_forever(sys, static_cast<NodeId>(n), flag));
  }
  sys.run();  // Must return despite 128 infinite spins.
  EXPECT_TRUE(sys.timed_out());
  EXPECT_LE(last_issue, cfg.max_cycles);  // Nothing issued past the limit.
  EXPECT_GT(sys.exec_time(), cfg.max_cycles);
  EXPECT_LT(sys.exec_time(), 2 * cfg.max_cycles);  // Stopped promptly.
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_GT(per_node[static_cast<std::size_t>(n)], 0u) << "node " << n;
  }
  EXPECT_EQ(coherence_violations(sys.memory()), kNoViolations);
}

}  // namespace
}  // namespace lssim

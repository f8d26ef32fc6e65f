// Capture-once / replay-many engine: stat agreement with live execution.
//
// Three claims, per docs/PERFORMANCE.md "Capture once, replay many":
//   1. Same-protocol replay is ALWAYS bit-identical to the execution the
//      trace was captured from — any workload, any protocol x directory.
//   2. Cross-protocol replay matches live execution exactly on
//      feedback-insensitive workloads (private-RMW / read-mostly with
//      sync = 0: no spin loops, no timing-dependent control flow).
//   3. On feedback-sensitive workloads (ping-pong's turn-word spin),
//      cross-protocol replay legitimately diverges from execution — and
//      compare_replay() reports it instead of staying silent.
#include "trace/replay_compare.hpp"

#include <gtest/gtest.h>

#include "core/directory_registry.hpp"
#include "core/protocol_registry.hpp"
#include "workloads/harness.hpp"
#include "workloads/micro.hpp"

namespace lssim {
namespace {

MachineConfig small_cfg() {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{1024, 1, 16};
  cfg.l2 = CacheConfig{8192, 1, 16};
  return cfg;
}

WorkloadBuilder pingpong_builder() {
  return [](System& sys) {
    build_pingpong(sys, PingPongParams{.rounds = 60, .counters = 2});
  };
}

// Feedback-insensitive micro workloads: sync = 0 removes the spin
// barrier, the only timing-dependent control flow they have.
WorkloadBuilder private_rmw_nosync() {
  return [](System& sys) {
    build_private_rmw(sys, PrivateRmwParams{.words_per_proc = 2048,
                                            .sweeps = 2,
                                            .sync = 0});
  };
}

WorkloadBuilder read_mostly_nosync() {
  return [](System& sys) {
    build_read_mostly(sys,
                      ReadMostlyParams{.words = 256, .rounds = 40,
                                       .sync = 0});
  };
}

TEST(ReplayCompare, SameProtocolReplayBitIdenticalAcrossMatrix) {
  // Claim 1 on the full registered matrix: capture under each
  // protocol x directory cell, replay under the same cell, demand an
  // empty diff. Ping-pong is feedback-SENSITIVE — which is the point:
  // same-protocol agreement must not depend on the workload.
  for (ProtocolKind protocol : all_protocol_kinds()) {
    for (DirectoryKind directory : kDirectoryNames.all()) {
      MachineConfig cfg = small_cfg();
      cfg.protocol.kind = protocol;
      cfg.directory_scheme = directory;
      const CapturedTrace captured =
          capture_trace(cfg, pingpong_builder(), /*seed=*/1, "pingpong");
      const ReplayCompareEngine engine(captured.trace, cfg);
      const RunResult replayed = engine.replay(protocol, directory);
      const std::vector<std::string> diffs =
          compare_replay(captured.executed, replayed);
      EXPECT_TRUE(diffs.empty())
          << to_string(protocol) << " / " << to_string(directory) << ": "
          << (diffs.empty() ? "" : diffs.front());
    }
  }
}

TEST(ReplayCompare, SameProtocolReplayAgreesAt128And256Nodes) {
  // Claim 1 at depth: the issue scheduler's tree spans 128 and 256
  // leaves here, and replay must still interleave exactly like the live
  // run it was captured from.
  for (int nodes : {128, 256}) {
    MachineConfig cfg = small_cfg();
    cfg.num_nodes = nodes;
    cfg.protocol.kind = ProtocolKind::kLs;
    cfg.directory_scheme = DirectoryKind::kLimitedPtr;
    const CapturedTrace captured = capture_trace(
        cfg, [](System& sys) {
          build_private_rmw(sys, PrivateRmwParams{.words_per_proc = 128,
                                                  .sweeps = 2,
                                                  .sync = 0});
        });
    const ReplayCompareEngine engine(captured.trace, cfg);
    const std::vector<std::string> diffs = compare_replay(
        captured.executed,
        engine.replay(ProtocolKind::kLs, DirectoryKind::kLimitedPtr));
    EXPECT_TRUE(diffs.empty())
        << nodes << " nodes: " << (diffs.empty() ? "" : diffs.front());
  }
}

TEST(ReplayCompare, CrossProtocolAgreesOnFeedbackInsensitiveWorkloads) {
  // Claim 2: one baseline capture drives every protocol, and each
  // replay matches that protocol's live execution bit for bit.
  struct Case {
    const char* name;
    WorkloadBuilder build;
  };
  const Case cases[] = {{"private_rmw", private_rmw_nosync()},
                        {"read_mostly", read_mostly_nosync()}};
  for (const Case& c : cases) {
    const MachineConfig base = small_cfg();
    const CapturedTrace captured =
        capture_trace(base, c.build, /*seed=*/1, c.name);
    const ReplayCompareEngine engine(captured.trace, base);
    for (ProtocolKind protocol : all_protocol_kinds()) {
      MachineConfig cfg = base;
      cfg.protocol.kind = protocol;
      const RunResult executed = run_experiment(cfg, c.build, /*seed=*/1);
      const RunResult replayed = engine.replay(protocol);
      const std::vector<std::string> diffs =
          compare_replay(executed, replayed);
      EXPECT_TRUE(diffs.empty())
          << c.name << " under " << to_string(protocol) << ": "
          << (diffs.empty() ? "" : diffs.front());
    }
  }
}

TEST(ReplayCompare, CrossProtocolDivergenceOnSpinWorkloadIsReported) {
  // Claim 3: ping-pong's spin count depends on protocol-induced
  // latencies, so a baseline-captured trace replayed under LS cannot
  // match a live LS run — compare_replay must say so.
  const MachineConfig base = small_cfg();
  const CapturedTrace captured =
      capture_trace(base, pingpong_builder(), /*seed=*/1, "pingpong");
  const ReplayCompareEngine engine(captured.trace, base);
  MachineConfig ls = base;
  ls.protocol.kind = ProtocolKind::kLs;
  const RunResult executed =
      run_experiment(ls, pingpong_builder(), /*seed=*/1);
  const std::vector<std::string> diffs =
      compare_replay(executed, engine.replay(ProtocolKind::kLs));
  EXPECT_FALSE(diffs.empty());
}

TEST(ReplayCompare, MatrixParallelFanoutMatchesSerial) {
  const MachineConfig base = small_cfg();
  const CapturedTrace captured =
      capture_trace(base, pingpong_builder(), /*seed=*/1, "pingpong");
  const ReplayCompareEngine engine(captured.trace, base);
  const std::vector<ProtocolKind> protocols = all_protocol_kinds();
  const std::vector<DirectoryKind> directories = kDirectoryNames.all();
  const std::vector<RunResult> serial =
      engine.replay_matrix(protocols, directories, /*jobs=*/1);
  const std::vector<RunResult> parallel =
      engine.replay_matrix(protocols, directories, /*jobs=*/3);
  ASSERT_EQ(serial.size(), protocols.size() * directories.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::vector<std::string> diffs =
        compare_replay(serial[i], parallel[i]);
    EXPECT_TRUE(diffs.empty())
        << "cell " << i << ": " << (diffs.empty() ? "" : diffs.front());
    EXPECT_EQ(serial[i].protocol, parallel[i].protocol);
    EXPECT_EQ(serial[i].directory, parallel[i].directory);
  }
  // Protocol-major order, the driver's run order.
  EXPECT_EQ(serial[0].protocol, protocols[0]);
  EXPECT_EQ(serial[0].directory, directories[0]);
  EXPECT_EQ(serial[1].directory, directories[1]);
  EXPECT_EQ(serial[directories.size()].protocol, protocols[1]);
}

TEST(ReplayCompare, CaptureProvidesGroundTruthResult) {
  const MachineConfig base = small_cfg();
  const CapturedTrace captured =
      capture_trace(base, pingpong_builder(), /*seed=*/1, "pingpong");
  const RunResult executed =
      run_experiment(base, pingpong_builder(), /*seed=*/1);
  // capture_trace's attached recorder must not perturb the run.
  EXPECT_TRUE(compare_replay(executed, captured.executed).empty());
  EXPECT_EQ(captured.trace.meta().workload, "pingpong");
  EXPECT_EQ(captured.trace.meta().seed, 1u);
  EXPECT_NE(captured.trace.meta().config_hash, 0u);
}

}  // namespace
}  // namespace lssim

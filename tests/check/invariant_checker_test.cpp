// The invariant layer itself: clean traces pass under every registered
// protocol, the reference memory models RMW semantics, and injected
// policy faults trip the matching invariant. The exhaustive/fuzz drivers
// built on top are covered in explorer_test.cpp and fuzzer_test.cpp.
#include "check/invariants.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "../core/protocol_test_util.hpp"
#include "check/trace_runner.hpp"
#include "core/protocol_registry.hpp"

namespace lssim::check {
namespace {

ReproTrace mixed_trace(ProtocolKind kind) {
  ReproTrace trace;
  trace.machine = tiny_machine(3, kind);
  const Addr b0 = verification_block(trace.machine, 0);
  const Addr b1 = verification_block(trace.machine, 1);
  trace.accesses = {
      {0, MemOpKind::kRead, b0, 8, 0, 0},
      {0, MemOpKind::kWrite, b0, 8, 0x11, 0},
      {1, MemOpKind::kRead, b0, 8, 0, 0},
      {1, MemOpKind::kFetchAdd, b0, 8, 0x5, 0},
      {2, MemOpKind::kCas, b0, 8, 0x99, 0x16},  // expected == current value.
      {2, MemOpKind::kCas, b0, 8, 0x42, 0x0},   // expected mismatches.
      {0, MemOpKind::kSwap, b1, 8, 0x7777, 0},
      {1, MemOpKind::kRead, b1 + 8, 8, 0, 0},
      {0, MemOpKind::kRead, b0, 8, 0, 0},
      {2, MemOpKind::kWrite, b1, 8, 0x2222, 0},
  };
  return trace;
}

/// True when some message reports a [dir-cache-agreement] violation
/// that mentions `needle`.
bool reports_agreement(const std::vector<std::string>& messages,
                       const std::string& needle) {
  for (const std::string& m : messages) {
    if (m.find("[dir-cache-agreement]") != std::string::npos &&
        m.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// coherence_violations (the helper every protocol test asserts a
// coherent machine through) must still see a corrupted directory.
TEST(InvariantChecker, DroppedSharerIsReported) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kBaseline));
  const Addr block = f.on_home(1);
  f.read(0, block);
  f.read(2, block);
  ASSERT_EQ(coherence_violations(f.ms()), kNoViolations);
  f.ms().directory().entry(block).remove_sharer(2);
  EXPECT_TRUE(reports_agreement(coherence_violations(f.ms()),
                                "node 2 holds"));
}

TEST(InvariantChecker, StaleOwnerIsReported) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kBaseline));
  const Addr block = f.on_home(1);
  f.write(3, block, 7);
  ASSERT_EQ(coherence_violations(f.ms()), kNoViolations);
  f.ms().directory().entry(block).owner = 0;
  EXPECT_TRUE(reports_agreement(coherence_violations(f.ms()),
                                "node 3 holds"));
}

TEST(InvariantChecker, CleanTracePassesUnderEveryProtocol) {
  for (ProtocolKind kind : all_protocol_kinds()) {
    const TraceRunResult run =
        run_trace(mixed_trace(kind), {}, CheckerOptions{.full_scan_interval = 1});
    EXPECT_TRUE(run.ok()) << to_string(kind) << ": "
                          << (run.violations.empty()
                                  ? "?"
                                  : run.violations.front().message());
    EXPECT_EQ(run.accesses, 10u);
  }
}

TEST(InvariantChecker, IncrementalAndFullSweepAgree) {
  // The incremental mode (touched blocks only, periodic sweep) must
  // accept exactly the traces the every-access full sweep accepts.
  for (ProtocolKind kind : all_protocol_kinds()) {
    const ReproTrace trace = mixed_trace(kind);
    const TraceRunResult sweep =
        run_trace(trace, {}, CheckerOptions{.full_scan_interval = 1});
    const TraceRunResult incremental =
        run_trace(trace, {}, CheckerOptions{.full_scan_interval = 0});
    EXPECT_EQ(sweep.ok(), incremental.ok()) << to_string(kind);
  }
}

/// LS policy that grants an exclusive copy on *every* read miss, tagged
/// or not — the grant-legality invariant must flag the first untagged
/// grant.
class GreedyGrantPolicy final : public CoherencePolicy {
 public:
  [[nodiscard]] ProtocolKind kind() const noexcept override {
    return ProtocolKind::kLs;
  }
  [[nodiscard]] bool read_grants_exclusive(const DirEntry&,
                                           bool) const override {
    return true;
  }
};

TEST(InvariantChecker, UntaggedExclusiveGrantIsFlagged) {
  ReproTrace trace;
  trace.machine = tiny_machine(2);
  const Addr b0 = verification_block(trace.machine, 0);
  // A cold read of an untagged block; the greedy policy grants LStemp.
  trace.accesses = {{0, MemOpKind::kRead, b0, 8, 0, 0}};
  const auto policy = [](const MachineConfig&) {
    return std::unique_ptr<CoherencePolicy>(
        std::make_unique<GreedyGrantPolicy>());
  };
  const TraceRunResult run =
      run_trace(trace, policy, CheckerOptions{.full_scan_interval = 1});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.violations.front().invariant, "ls-tag");
  EXPECT_EQ(run.violations.front().access_index, 1u);
}

/// Claims to be Baseline but tags blocks — the checker's Baseline-
/// never-tags rule must fire.
class TaggingBaselinePolicy final : public CoherencePolicy {
 public:
  [[nodiscard]] ProtocolKind kind() const noexcept override {
    return ProtocolKind::kBaseline;
  }
  WriteTagDecision on_global_write(const DirEntry&, NodeId, bool) override {
    return {TagAction::kTag, false};
  }
};

TEST(InvariantChecker, BaselineTaggingIsFlagged) {
  ReproTrace trace;
  trace.machine = tiny_machine(2, ProtocolKind::kBaseline);
  const Addr b0 = verification_block(trace.machine, 0);
  trace.accesses = {
      {0, MemOpKind::kRead, b0, 8, 0, 0},
      {0, MemOpKind::kWrite, b0, 8, 0x1, 0},  // LR == writer: policy tags.
  };
  const auto policy = [](const MachineConfig&) {
    return std::unique_ptr<CoherencePolicy>(
        std::make_unique<TaggingBaselinePolicy>());
  };
  const TraceRunResult run =
      run_trace(trace, policy, CheckerOptions{.full_scan_interval = 1});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.violations.front().invariant, "ls-tag");
}

TEST(InvariantChecker, ViolationStorageIsCappedButCountingContinues) {
  ReproTrace trace;
  trace.machine = tiny_machine(2);
  const Addr b0 = verification_block(trace.machine, 0);
  for (int i = 0; i < 8; ++i) {
    // Every read of an untagged block draws a fresh illegal grant.
    trace.accesses.push_back({0, MemOpKind::kRead, b0, 8, 0, 0});
    trace.accesses.push_back({1, MemOpKind::kWrite, b0, 8, 0x1, 0});
  }
  const auto policy = [](const MachineConfig&) {
    return std::unique_ptr<CoherencePolicy>(
        std::make_unique<GreedyGrantPolicy>());
  };
  const TraceRunResult run = run_trace(
      trace, policy,
      CheckerOptions{.max_violations = 2, .full_scan_interval = 1});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.violations.size(), 2u);
  EXPECT_GT(run.total_violations, 2u);
}

TEST(InvariantChecker, MessageFormatNamesInvariantAndAccess) {
  const Violation v{"swmr", "two writable copies of 0x40", 7};
  EXPECT_EQ(v.message(),
            "[swmr] after access #7: two writable copies of 0x40");
}

}  // namespace
}  // namespace lssim::check

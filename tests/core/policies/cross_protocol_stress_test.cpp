// Randomized cross-protocol equivalence stress.
//
// One random access trace is replayed under every registered protocol.
// Policies may only change *performance* (who holds which copy when);
// they must never change *semantics*: the coherence invariants hold
// after every single access, and every load / RMW returns bit-identical
// values under all protocols.
#include <gtest/gtest.h>

#include <vector>

#include "core/protocol_registry.hpp"
#include "sim/rng.hpp"

#include "../../coherence_check.hpp"
#include "../protocol_test_util.hpp"

namespace lssim {
namespace {

struct TraceOp {
  MemOpKind op;
  NodeId node;
  Addr addr;
  std::uint64_t wdata;
  std::uint64_t expected;
  std::uint32_t site;
};

/// A trace biased toward sharing: few blocks, many nodes, and enough
/// read→write pairs that LS/AD/ILS actually tag and mis-tag blocks.
std::vector<TraceOp> make_trace(std::uint64_t seed, int num_nodes,
                                std::size_t length) {
  Rng rng(seed);
  // 24 word addresses over 3 pages → multiple homes, heavy set conflicts
  // in the tiny fixture caches (forced evictions included).
  std::vector<Addr> pool;
  for (Addr page = 0; page < 3; ++page) {
    for (Addr word = 0; word < 8; ++word) {
      pool.push_back(page * 4096 + word * 4);
    }
  }
  std::vector<TraceOp> trace;
  trace.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    TraceOp op;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      op.op = MemOpKind::kRead;
    } else if (roll < 85) {
      op.op = MemOpKind::kWrite;
    } else if (roll < 90) {
      op.op = MemOpKind::kSwap;
    } else if (roll < 95) {
      op.op = MemOpKind::kFetchAdd;
    } else {
      op.op = MemOpKind::kCas;
    }
    op.node = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(num_nodes)));
    op.addr = pool[rng.next_below(pool.size())];
    op.wdata = rng.next_below(1 << 20);
    op.expected = rng.next_below(4);  // CAS succeeds sometimes.
    // A handful of distinct sites per node so ILS's tables train.
    op.site = static_cast<std::uint32_t>(rng.next_below(6));
    trace.push_back(op);
  }
  return trace;
}

/// Replays the trace under `kind`, asserting the invariants after every
/// access; returns every loaded/old value in trace order.
std::vector<std::uint64_t> replay(ProtocolKind kind,
                                  const std::vector<TraceOp>& trace) {
  ProtocolFixture f(ProtocolFixture::tiny(kind));
  std::vector<std::uint64_t> values;
  values.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    AccessRequest req;
    req.op = op.op;
    req.addr = op.addr;
    req.size = 4;
    req.wdata = op.wdata;
    req.expected = op.expected;
    req.site = op.site;
    const AccessResult r = f.issue(op.node, req);
    values.push_back(r.value);
    if (!coherence_violations(f.ms()).empty()) {
      ADD_FAILURE() << "coherence invariants broken under "
                    << to_string(kind) << " at op " << i;
      return values;
    }
  }
  f.ms().finalize();
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations) << to_string(kind);
  return values;
}

class CrossProtocolStressTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrossProtocolStressTest, AllProtocolsAgreeOnEveryLoadedValue) {
  const std::vector<TraceOp> trace = make_trace(GetParam(), 4, 2500);
  std::vector<std::uint64_t> reference;
  for (ProtocolKind kind : all_protocol_kinds()) {
    const std::vector<std::uint64_t> values = replay(kind, trace);
    if (HasFailure()) return;
    if (kind == ProtocolKind::kBaseline) {
      reference = values;
      continue;
    }
    ASSERT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i])
          << to_string(kind) << " diverged from Baseline at op " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossProtocolStressTest,
                         ::testing::Values(1u, 2u, 42u, 20260805u));

}  // namespace
}  // namespace lssim

// Property-based tests: random access streams driven directly into the
// MemorySystem must uphold protocol invariants regardless of protocol,
// configuration or interleaving; and the simulated memory must behave
// exactly like a flat reference memory (coherence transparency).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "../coherence_check.hpp"
#include "core/protocol.hpp"
#include "mem/address_space.hpp"
#include "sim/rng.hpp"
#include "stats/stats.hpp"

namespace lssim {
namespace {

struct Variant {
  ProtocolKind kind;
  std::uint32_t block_bytes;
  std::uint32_t l2_size;
  bool default_tagged;
  std::uint8_t tag_hyst;
  std::uint8_t detag_hyst;
};

class ProtocolProperty : public ::testing::TestWithParam<Variant> {};

TEST_P(ProtocolProperty, RandomStreamKeepsInvariantsAndValues) {
  const Variant v = GetParam();
  MachineConfig cfg;
  cfg.num_nodes = 4;
  cfg.l1 = CacheConfig{512, 1, v.block_bytes};
  cfg.l2 = CacheConfig{v.l2_size, 1, v.block_bytes};
  cfg.protocol.kind = v.kind;
  cfg.protocol.default_tagged = v.default_tagged;
  cfg.protocol.tag_hysteresis = v.tag_hyst;
  cfg.protocol.detag_hysteresis = v.detag_hyst;
  cfg.classify_false_sharing = true;
  ASSERT_EQ(cfg.validate(), "");

  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  MemorySystem ms(cfg, space, stats);

  // Reference memory: the protocol must be invisible to program values.
  std::map<Addr, std::uint64_t> reference;

  Rng rng(static_cast<std::uint64_t>(v.block_bytes) * 1000003 +
          static_cast<std::uint64_t>(v.kind) * 131 + v.l2_size);
  Cycles now = 0;
  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    const NodeId node = static_cast<NodeId>(rng.next_below(4));
    // Footprint: 64 hot words + 512 cold words across several pages.
    const bool hot = rng.next_bool(0.6);
    const Addr word = hot ? rng.next_below(64)
                          : 64 + rng.next_below(512);
    const Addr addr = word * 8;
    now += rng.next_below(300);

    AccessRequest req;
    req.addr = addr;
    req.size = 8;
    const int what = static_cast<int>(rng.next_below(10));
    if (what < 5) {
      req.op = MemOpKind::kRead;
      const AccessResult r = ms.access(node, req, now);
      const auto it = reference.find(addr);
      const std::uint64_t expect = it == reference.end() ? 0 : it->second;
      ASSERT_EQ(r.value, expect) << "read mismatch at op " << op;
    } else if (what < 8) {
      req.op = MemOpKind::kWrite;
      req.wdata = rng.next();
      (void)ms.access(node, req, now);
      reference[addr] = req.wdata;
    } else if (what < 9) {
      req.op = MemOpKind::kFetchAdd;
      req.wdata = rng.next_below(1000);
      const AccessResult r = ms.access(node, req, now);
      const auto it = reference.find(addr);
      const std::uint64_t expect = it == reference.end() ? 0 : it->second;
      ASSERT_EQ(r.value, expect);
      reference[addr] = expect + req.wdata;
    } else {
      req.op = MemOpKind::kSwap;
      req.wdata = rng.next();
      const AccessResult r = ms.access(node, req, now);
      const auto it = reference.find(addr);
      const std::uint64_t expect = it == reference.end() ? 0 : it->second;
      ASSERT_EQ(r.value, expect);
      reference[addr] = req.wdata;
    }

    if (op % 500 == 0) {
      ASSERT_EQ(coherence_violations(ms), kNoViolations) << "op " << op;
    }
  }
  ms.finalize();
  EXPECT_EQ(coherence_violations(ms), kNoViolations);
  // Sanity on stats bookkeeping.
  EXPECT_EQ(stats.accesses, static_cast<std::uint64_t>(kOps));
  EXPECT_LE(stats.false_sharing_misses, stats.coherence_misses);
  EXPECT_LE(stats.coherence_misses, stats.data_misses);
  std::uint64_t by_state = 0;
  for (auto c : stats.read_miss_home_state) by_state += c;
  EXPECT_EQ(by_state, stats.global_read_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolProperty,
    ::testing::Values(
        Variant{ProtocolKind::kBaseline, 16, 2048, false, 1, 1},
        Variant{ProtocolKind::kBaseline, 64, 4096, false, 1, 1},
        Variant{ProtocolKind::kAd, 16, 2048, false, 1, 1},
        Variant{ProtocolKind::kAd, 32, 4096, false, 1, 1},
        Variant{ProtocolKind::kAd, 64, 8192, true, 1, 1},
        Variant{ProtocolKind::kLs, 16, 2048, false, 1, 1},
        Variant{ProtocolKind::kLs, 32, 2048, false, 1, 1},
        Variant{ProtocolKind::kLs, 64, 4096, false, 1, 1},
        Variant{ProtocolKind::kLs, 16, 2048, true, 1, 1},
        Variant{ProtocolKind::kLs, 16, 2048, false, 2, 2},
        Variant{ProtocolKind::kLs, 32, 8192, true, 2, 1},
        Variant{ProtocolKind::kLs, 128, 8192, false, 1, 2},
        Variant{ProtocolKind::kLsAd, 16, 2048, false, 1, 1},
        Variant{ProtocolKind::kLsAd, 64, 4096, true, 1, 1},
        Variant{ProtocolKind::kLsAd, 32, 8192, false, 2, 2}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      const Variant& v = info.param;
      std::string kind_name(to_string(v.kind));
      for (char& c : kind_name) {
        if (c == '+') c = '_';  // "LS+AD" -> "LS_AD".
      }
      return kind_name + "_b" +
             std::to_string(v.block_bytes) + "_l2x" +
             std::to_string(v.l2_size) + (v.default_tagged ? "_dt" : "") +
             "_h" + std::to_string(v.tag_hyst) +
             std::to_string(v.detag_hyst);
    });

}  // namespace
}  // namespace lssim

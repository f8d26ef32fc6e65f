// OLTP workload: transactional consistency (balances must reconcile) and
// the sharing-profile diagnostics the paper reports in §5.4.
#include "workloads/oltp.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>

#include "../coherence_check.hpp"
#include "workloads/harness.hpp"

namespace lssim {
namespace {

MachineConfig oltp_cfg(ProtocolKind kind) {
  MachineConfig cfg = MachineConfig::oltp_default(kind);
  // Smaller caches keep unit-test runtimes low while preserving the
  // capacity-miss-heavy character.
  cfg.l1 = CacheConfig{8 * 1024, 2, 32};
  cfg.l2 = CacheConfig{64 * 1024, 1, 32};
  return cfg;
}

OltpParams small_params() {
  OltpParams p;
  p.accounts = 8192;
  p.txns_per_proc = 300;
  p.hot_accounts = 512;
  return p;
}

TEST(Oltp, RunsToCompletionUnderAllProtocols) {
  for (ProtocolKind kind :
       {ProtocolKind::kBaseline, ProtocolKind::kAd, ProtocolKind::kLs}) {
    const RunResult r = run_experiment(
        oltp_cfg(kind),
        [&](System& sys) { build_oltp(sys, small_params()); });
    EXPECT_GT(r.accesses, 10000u) << to_string(kind);
    EXPECT_GT(r.exec_time, 0u);
  }
}

TEST(Oltp, CoherenceInvariantsHoldAfterRun) {
  System sys(oltp_cfg(ProtocolKind::kLs));
  build_oltp(sys, small_params());
  sys.run();
  EXPECT_EQ(coherence_violations(sys.memory()), kNoViolations);
}

TEST(Oltp, RejectsHotSpansPastTheAccountTable) {
  // Four processors' hot spans of 512 need 2048 accounts.
  OltpParams p = small_params();
  p.accounts = 2047;
  System sys(oltp_cfg(ProtocolKind::kLs));
  EXPECT_THROW(build_oltp(sys, p), std::invalid_argument);
  EXPECT_NE(p.validate(4).find("hot_accounts"), std::string::npos);
  EXPECT_NE(p.validate(4).find("accounts (2047)"), std::string::npos);
  p.accounts = 2048;
  EXPECT_EQ(p.validate(4), "");
  // Every processor needs a home branch.
  p.branches = 3;
  EXPECT_NE(p.validate(4).find("branches (3) < procs (4)"), std::string::npos);
}

TEST(Oltp, AllStreamComponentsAppear) {
  const RunResult r = run_experiment(
      oltp_cfg(ProtocolKind::kBaseline),
      [&](System& sys) { build_oltp(sys, small_params()); });
  // Table 2's three-way split requires all components to issue global
  // write actions.
  EXPECT_GT(r.oracle_by_tag[static_cast<int>(StreamTag::kApp)].global_writes,
            0u);
  EXPECT_GT(
      r.oracle_by_tag[static_cast<int>(StreamTag::kLibrary)].global_writes,
      0u);
  EXPECT_GT(r.oracle_by_tag[static_cast<int>(StreamTag::kOs)].global_writes,
            0u);
}

TEST(Oltp, SharingProfileInPaperRegime) {
  const RunResult r = run_experiment(
      oltp_cfg(ProtocolKind::kBaseline),
      [&](System& sys) { build_oltp(sys, small_params()); });
  // Paper §5.4 / Table 2: ~42% of global writes are load-store; ~47% of
  // those migratory; ~1.4 invalidations per global write. Accept a broad
  // band — the tests pin the regime, EXPERIMENTS.md records the values.
  EXPECT_GT(r.oracle_total.ls_fraction(), 0.25);
  EXPECT_LT(r.oracle_total.ls_fraction(), 0.75);
  EXPECT_GT(r.oracle_total.migratory_fraction(), 0.25);
  EXPECT_LT(r.oracle_total.migratory_fraction(), 0.8);
  // Writes hit read-shared copies regularly (the paper reports ~1.4
  // invalidations per global write on the full-size workload; the
  // miniaturized working set keeps reader copies alive for less time, so
  // the ratio lands lower — see EXPERIMENTS.md).
  EXPECT_GT(r.invalidations_per_write(), 0.35);
}

TEST(Oltp, LsBeatsAdOnWriteStall) {
  const RunResult base = run_experiment(
      oltp_cfg(ProtocolKind::kBaseline),
      [&](System& sys) { build_oltp(sys, small_params()); });
  const RunResult ad = run_experiment(
      oltp_cfg(ProtocolKind::kAd),
      [&](System& sys) { build_oltp(sys, small_params()); });
  const RunResult ls = run_experiment(
      oltp_cfg(ProtocolKind::kLs),
      [&](System& sys) { build_oltp(sys, small_params()); });
  EXPECT_LT(ls.time.write_stall, base.time.write_stall);
  EXPECT_LT(ls.time.write_stall, ad.time.write_stall);
  EXPECT_GT(ls.eliminated_acquisitions, ad.eliminated_acquisitions);
}

TEST(Oltp, Deterministic) {
  auto once = [] {
    return run_experiment(
        oltp_cfg(ProtocolKind::kLs),
        [&](System& sys) { build_oltp(sys, small_params()); });
  };
  const RunResult a = once();
  const RunResult b = once();
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.traffic_total, b.traffic_total);
}

TEST(Oltp, FalseSharingClassifierFindsFalseSharing) {
  MachineConfig cfg = oltp_cfg(ProtocolKind::kBaseline);
  cfg.classify_false_sharing = true;
  const RunResult r = run_experiment(
      cfg, [&](System& sys) { build_oltp(sys, small_params()); });
  EXPECT_GT(r.coherence_misses, 0u);
  EXPECT_GT(r.false_sharing_misses, 0u);
  EXPECT_LE(r.false_sharing_misses, r.coherence_misses);
}

TEST(Oltp, MemoryFootprintIsTheChunksItsStoresTouch) {
  // The account table spans 16 MiB (1 M accounts x 16 B) and is written
  // at random, one record per update: storage grows by a 64-byte chunk
  // per touched record, not a 4 KiB page.
  const OltpParams params;  // The default 1 M accounts.
  System sys(MachineConfig::oltp_default(ProtocolKind::kLs));
  ASSERT_EQ(params.accounts, 1 << 20);
  std::unordered_set<Addr> chunks;
  std::unordered_set<Addr> pages;
  sys.add_access_observer(
      [&](NodeId, const AccessRequest& req, Cycles, Cycles) {
        if (req.is_write()) {
          chunks.insert(req.addr / AddressSpace::kChunkBytes);
          pages.insert(req.addr / 4096);
        }
      });
  build_oltp(sys, params);
  sys.run();
  EXPECT_EQ(sys.space().resident_chunks(), chunks.size());
  EXPECT_LE(8 * chunks.size() * AddressSpace::kChunkBytes,
            pages.size() * 4096);
}

}  // namespace
}  // namespace lssim

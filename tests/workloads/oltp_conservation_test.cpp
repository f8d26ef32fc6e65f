// OLTP money conservation: TPC-B applies the same delta to an account, a
// teller and a branch, all inside the transaction's locks. If mutual
// exclusion or coherence ever delivered a stale balance, the three table
// totals would disagree. This is an end-to-end data-race detector for
// the whole stack (locks over simulated memory + protocol + scheduler).
#include <gtest/gtest.h>

#include <memory>

#include "workloads/harness.hpp"
#include "workloads/oltp.hpp"

namespace lssim {
namespace {

// Mirrors the layout constants in workloads/oltp.cpp.
constexpr Addr kHeapBase = Addr{1} << 40;
constexpr Addr kRecordBytes = 16;

struct Totals {
  std::int64_t branches = 0;
  std::int64_t tellers = 0;
  std::int64_t accounts = 0;
};

Totals read_totals(System& sys, const OltpParams& p) {
  Totals totals;
  Addr cursor = kHeapBase;
  for (int b = 0; b < p.branches; ++b) {
    totals.branches += static_cast<std::int64_t>(
                           sys.space().load(cursor + b * kRecordBytes, 8)) -
                       1000;
  }
  cursor += static_cast<Addr>(p.branches) * kRecordBytes;
  const int tellers = p.branches * p.tellers_per_branch;
  for (int t = 0; t < tellers; ++t) {
    totals.tellers += static_cast<std::int64_t>(
                          sys.space().load(cursor + t * kRecordBytes, 8)) -
                      100;
  }
  cursor += static_cast<Addr>(tellers) * kRecordBytes;
  for (int a = 0; a < p.accounts; ++a) {
    totals.accounts += static_cast<std::int64_t>(
        sys.space().load(cursor + static_cast<Addr>(a) * kRecordBytes, 8));
  }
  return totals;
}

// The history ring follows the index (16 + 64 + 1024 words) and the
// 8-byte tail counter; it holds 8192 records of (branch << 32 | key,
// delta).
constexpr Addr kIndexBytes = (16 + 64 + 1024) * 8;
constexpr std::uint64_t kHistorySlots = 8192;

Addr history_tail_addr(const OltpParams& p) {
  const auto records = static_cast<Addr>(
      p.branches + p.branches * p.tellers_per_branch + p.accounts);
  return kHeapBase + records * kRecordBytes + kIndexBytes;
}

OltpParams small_params() {
  OltpParams params;
  params.accounts = 16384;  // Keep the final table scan cheap.
  params.hot_accounts = 2048;
  params.txns_per_proc = 400;
  return params;
}

std::unique_ptr<System> run_small_oltp(ProtocolKind kind,
                                       const OltpParams& params) {
  MachineConfig cfg = MachineConfig::oltp_default(kind);
  cfg.l1 = CacheConfig{8 * 1024, 2, 32};
  cfg.l2 = CacheConfig{32 * 1024, 1, 32};
  auto sys = std::make_unique<System>(cfg);
  build_oltp(*sys, params);
  sys->run();
  return sys;
}

class OltpConservation : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(OltpConservation, TableTotalsAgree) {
  const OltpParams params = small_params();
  const auto sys = run_small_oltp(GetParam(), params);

  const Totals totals = read_totals(*sys, params);
  // Every update adds delta to exactly one row of each table, under the
  // teller+branch locks — the totals must match exactly.
  EXPECT_EQ(totals.branches, totals.tellers);
  EXPECT_EQ(totals.branches, totals.accounts);
  // And money actually moved.
  EXPECT_NE(totals.branches, 0);
}

TEST_P(OltpConservation, HistoryRingHoldsOneRecordPerUpdate) {
  // Regression: the slot index is tail % 8192. When g++ 12 compiled it
  // with the co_await inside the `%` expression, sanitizer builds divided
  // by zero here. Every update must land in slot `tail` (no wrap at this
  // size) carrying the same delta its account received.
  const OltpParams params = small_params();
  const auto sys = run_small_oltp(GetParam(), params);

  const Addr tail_addr = history_tail_addr(params);
  const std::uint64_t appended = sys->space().load(tail_addr, 8);
  ASSERT_GT(appended, 0u);
  ASSERT_LT(appended, kHistorySlots);
  const Addr history = (tail_addr + 8 + 15) & ~Addr{15};
  std::int64_t delta_sum = 0;
  for (std::uint64_t slot = 0; slot < kHistorySlots; ++slot) {
    const Addr rec = history + slot * kRecordBytes;
    if (slot < appended) {
      delta_sum += static_cast<std::int64_t>(sys->space().load(rec + 8, 8));
    } else {
      ASSERT_EQ(sys->space().load(rec, 8), 0u) << "slot " << slot;
      ASSERT_EQ(sys->space().load(rec + 8, 8), 0u) << "slot " << slot;
    }
  }
  EXPECT_EQ(delta_sum, read_totals(*sys, params).accounts);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, OltpConservation,
                         ::testing::Values(ProtocolKind::kBaseline,
                                           ProtocolKind::kAd,
                                           ProtocolKind::kLs,
                                           ProtocolKind::kIls,
                                           ProtocolKind::kLsAd),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == '+') c = '_';  // "LS+AD" -> "LS_AD".
                           }
                           return name;
                         });

}  // namespace
}  // namespace lssim

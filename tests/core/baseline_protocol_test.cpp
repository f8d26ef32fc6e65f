// Baseline write-invalidate protocol semantics (DASH-like, paper §4.2).
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : f_(ProtocolFixture::tiny(ProtocolKind::kBaseline)) {}
  ProtocolFixture f_;
};

TEST_F(BaselineTest, ColdReadBecomesShared) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kShared);
  const DirEntry& e = f_.dir(a);
  EXPECT_EQ(e.state, DirState::kShared);
  EXPECT_TRUE(f_.sharers(a).test(1));
  EXPECT_EQ(e.last_reader, 1);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, MultipleReadersShare) {
  const Addr a = f_.on_home(0);
  (void)f_.read(0, a);
  (void)f_.read(1, a);
  (void)f_.read(2, a);
  EXPECT_EQ(f_.sharers(a).count(), 3);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, WriteMissBecomesDirty) {
  const Addr a = f_.on_home(0);
  (void)f_.write(2, a, 55);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kModified);
  const DirEntry& e = f_.dir(a);
  EXPECT_EQ(e.state, DirState::kDirty);
  EXPECT_EQ(e.owner, 2);
  EXPECT_EQ(e.last_writer, 2);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, UpgradeInvalidatesAllOtherSharers) {
  const Addr a = f_.on_home(0);
  (void)f_.read(0, a);
  (void)f_.read(1, a);
  (void)f_.read(2, a);
  (void)f_.write(1, a, 9);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kModified);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kInvalid);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kInvalid);
  EXPECT_EQ(f_.stats().invalidations_sent, 2u);
  EXPECT_EQ(f_.stats().ownership_acquisitions, 1u);
  EXPECT_EQ(f_.stats().single_invalidations, 0u);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, SingleInvalidationCounted) {
  const Addr a = f_.on_home(0);
  (void)f_.read(0, a);
  (void)f_.read(1, a);
  (void)f_.write(0, a, 1);
  EXPECT_EQ(f_.stats().single_invalidations, 1u);
}

TEST_F(BaselineTest, ReadOnDirtyDowngradesOwner) {
  const Addr a = f_.on_home(2);
  (void)f_.write(0, a, 77);
  (void)f_.read(1, a);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kShared);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kShared);
  const DirEntry& e = f_.dir(a);
  EXPECT_EQ(e.state, DirState::kShared);
  EXPECT_EQ(f_.sharers(a).count(), 2);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, WriteMissOnDirtyTransfersOwnership) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a, 10);
  (void)f_.write(2, a, 20);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kModified);
  EXPECT_EQ(f_.dir(a).owner, 2);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, WriteMissOnSharedInvalidatesAll) {
  const Addr a = f_.on_home(0);
  (void)f_.read(0, a);
  (void)f_.read(1, a);
  (void)f_.write(2, a, 3);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kInvalid);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kModified);
  EXPECT_EQ(f_.stats().invalidations_sent, 2u);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, EvictionOfSharedUpdatesDirectory) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  f_.force_eviction(1, a);
  EXPECT_FALSE(f_.sharers(a).test(1));
  const DirEntry& e = f_.dir(a);
  EXPECT_EQ(e.state, DirState::kUncached);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(BaselineTest, EvictionOfDirtyWritesBack) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a, 123);
  const std::uint64_t wb_before =
      f_.stats().messages_by_type[static_cast<int>(MsgType::kWritebackData)];
  f_.force_eviction(1, a);
  const std::uint64_t wb_after =
      f_.stats().messages_by_type[static_cast<int>(MsgType::kWritebackData)];
  EXPECT_EQ(wb_after, wb_before + 1);
  EXPECT_EQ(f_.dir(a).state, DirState::kUncached);
  // The value survives in memory.
  EXPECT_EQ(f_.read(2, a).value, 123u);
}

TEST_F(BaselineTest, BaselineNeverTagsOrGivesExclusiveReads) {
  const Addr a = f_.on_home(0);
  for (int round = 0; round < 3; ++round) {
    (void)f_.read(0, a);
    (void)f_.write(0, a, round);
    f_.force_eviction(0, a);
  }
  EXPECT_EQ(f_.stats().exclusive_read_replies, 0u);
  EXPECT_EQ(f_.stats().blocks_tagged, 0u);
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 0u);
}

TEST_F(BaselineTest, ValuesFlowThroughProtocol) {
  const Addr a = f_.on_home(3);
  (void)f_.write(0, a, 0xdead, 8);
  EXPECT_EQ(f_.read(1, a, 8).value, 0xdeadu);
  (void)f_.write(2, a, 0xbeef, 8);
  EXPECT_EQ(f_.read(3, a, 8).value, 0xbeefu);
}

TEST_F(BaselineTest, AtomicSwapReturnsOldValue) {
  const Addr a = f_.on_home(0);
  (void)f_.write(0, a, 5);
  const AccessResult r = f_.swap(1, a, 9);
  EXPECT_EQ(r.value, 5u);
  EXPECT_EQ(f_.read(0, a).value, 9u);
}

TEST_F(BaselineTest, FetchAddAccumulates) {
  const Addr a = f_.on_home(0);
  EXPECT_EQ(f_.fetch_add(0, a, 3).value, 0u);
  EXPECT_EQ(f_.fetch_add(1, a, 4).value, 3u);
  EXPECT_EQ(f_.read(2, a).value, 7u);
}

TEST_F(BaselineTest, CasSucceedsOnlyOnMatch) {
  const Addr a = f_.on_home(0);
  (void)f_.write(0, a, 10);
  EXPECT_EQ(f_.cas(1, a, 99, 50).value, 10u);  // Mismatch: no store.
  EXPECT_EQ(f_.read(1, a).value, 10u);
  EXPECT_EQ(f_.cas(1, a, 10, 50).value, 10u);  // Match: stored.
  EXPECT_EQ(f_.read(0, a).value, 50u);
}

TEST_F(BaselineTest, ReadMissHomeStateClassification) {
  const Addr clean = f_.on_home(0, 0);
  const Addr dirty = f_.on_home(0, 16);
  (void)f_.read(1, clean);  // Uncached -> Clean.
  (void)f_.write(1, dirty);
  (void)f_.read(2, dirty);  // Dirty at node 1 -> Dirty.
  const auto& by_state = f_.stats().read_miss_home_state;
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kClean)], 1u);
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kDirty)], 1u);
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kCleanExcl)], 0u);
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kDirtyExcl)], 0u);
}

TEST_F(BaselineTest, LastCopyReplacementUncachesBlock) {
  const Addr a = f_.on_home(1);
  (void)f_.read(0, a);
  (void)f_.read(2, a);
  f_.force_eviction(0, a);
  EXPECT_EQ(f_.dir(a).state, DirState::kShared);
  f_.force_eviction(2, a);
  EXPECT_EQ(f_.dir(a).state, DirState::kUncached);
}

}  // namespace
}  // namespace lssim

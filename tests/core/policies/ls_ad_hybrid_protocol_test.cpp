// Engine-level behaviour of the LS+AD hybrid (paper §6): LS tagging
// with AD's migratory detection as a fallback, driven through the real
// MemorySystem rather than the bare hooks.
#include <gtest/gtest.h>

#include "../../coherence_check.hpp"
#include "../protocol_test_util.hpp"

namespace lssim {
namespace {

class LsAdHybridTest : public ::testing::Test {
 protected:
  LsAdHybridTest() : f_(ProtocolFixture::tiny(ProtocolKind::kLsAd)) {}
  ProtocolFixture f_;
};

TEST_F(LsAdHybridTest, PolicyIsTheHybrid) {
  EXPECT_EQ(f_.ms().policy().kind(), ProtocolKind::kLsAd);
}

TEST_F(LsAdHybridTest, LsRuleTagsReadThenWrite) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 7);
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsAdHybridTest, AdFallbackTagsWhereTheLrFieldCannotSee) {
  const Addr a = f_.on_home(0);
  // Node 1 owns the block, then 2 and 3 read it; node 3's copy is
  // replaced, and node 2 upgrades. The LR field points at node 3, so
  // the LS rule is blind — but AD's evidence holds: the only other copy
  // belongs to last writer 1.
  (void)f_.write(1, a, 1);
  (void)f_.read(2, a);
  (void)f_.read(3, a);
  f_.force_eviction(3, a);
  ASSERT_FALSE(f_.dir(a).tagged);
  (void)f_.write(2, a, 2);
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsAdHybridTest, PlainLsStaysUntaggedOnTheFallbackPattern) {
  // Control: the same sequence under plain LS tags nothing — that gap
  // is exactly what the hybrid's AD fallback closes.
  ProtocolFixture ls(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = ls.on_home(0);
  (void)ls.write(1, a, 1);
  (void)ls.read(2, a);
  (void)ls.read(3, a);
  ls.force_eviction(3, a);
  (void)ls.write(2, a, 2);
  EXPECT_FALSE(ls.dir(a).tagged);
}

TEST_F(LsAdHybridTest, TaggedBlockEliminatesTheNextAcquisition) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 7);
  ASSERT_TRUE(f_.dir(a).tagged);
  // The next migratory hand-off: the read returns an exclusive (LStemp)
  // copy and the write completes locally, with no global action.
  (void)f_.read(2, a);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kLStemp);
  const AccessResult w = f_.write(2, a, 8);
  EXPECT_FALSE(w.global);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsAdHybridTest, LoneWriteDetags) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 7);
  ASSERT_TRUE(f_.dir(a).tagged);
  // Node 2 writes without reading first: negative evidence, §3.1.
  (void)f_.write(2, a, 9);
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsAdHybridTest, ReadSharedPatternDetagsViaForeignAccess) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 7);
  ASSERT_TRUE(f_.dir(a).tagged);
  // Two foreign reads in a row: the second finds the first's unused
  // LStemp copy — the block is read-shared, not migratory (§3.1 case 2).
  (void)f_.read(2, a);
  ASSERT_EQ(f_.state_of(2, a), CacheState::kLStemp);
  (void)f_.read(3, a);
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsAdHybridTest, TagSurvivesReplacementOfTheOwningCopy) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 7);
  ASSERT_TRUE(f_.dir(a).tagged);
  f_.force_eviction(1, a);
  // AD would have dropped the property here (broken hand-off chain);
  // the hybrid's bit is home-resident like LS's.
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

}  // namespace
}  // namespace lssim

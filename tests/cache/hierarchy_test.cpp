#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

namespace lssim {
namespace {

CacheHierarchy make_small() {
  // L1: 4 sets x 16B, L2: 16 sets x 16B.
  return CacheHierarchy(CacheConfig{64, 1, 16}, CacheConfig{256, 1, 16});
}

TEST(Hierarchy, FillPopulatesBothLevels) {
  CacheHierarchy ch = make_small();
  ch.fill(0x40, CacheState::kShared);
  const ProbeResult p = ch.probe(0x40);
  EXPECT_TRUE(p.l1_hit);
  EXPECT_TRUE(p.l2_hit);
  EXPECT_EQ(p.state, CacheState::kShared);
  EXPECT_TRUE(ch.check_inclusion());
}

TEST(Hierarchy, ProbeMiss) {
  CacheHierarchy ch = make_small();
  const ProbeResult p = ch.probe(0x40);
  EXPECT_FALSE(p.l1_hit);
  EXPECT_FALSE(p.l2_hit);
  EXPECT_EQ(p.state, CacheState::kInvalid);
}

TEST(Hierarchy, L1VictimIsSilentAndL2Retains) {
  CacheHierarchy ch = make_small();
  // L1 has 4 sets; blocks 0 and 64 collide in L1 set 0 but not in L2.
  ch.fill(0, CacheState::kShared);
  ch.fill(64, CacheState::kShared);
  const ProbeResult p0 = ch.probe(0);
  EXPECT_FALSE(p0.l1_hit);
  EXPECT_TRUE(p0.l2_hit);
  EXPECT_TRUE(ch.check_inclusion());
}

TEST(Hierarchy, RefillL1FromL2) {
  CacheHierarchy ch = make_small();
  ch.fill(0, CacheState::kModified);
  ch.fill(64, CacheState::kShared);  // Evicts 0 from L1.
  EXPECT_FALSE(ch.probe(0).l1_hit);
  const CacheLine* line1 = ch.refill_l1(*ch.l2().find(0));
  EXPECT_EQ(line1, ch.l1().find(0));
  const ProbeResult p = ch.probe(0);
  EXPECT_TRUE(p.l1_hit);
  EXPECT_EQ(p.state, CacheState::kModified);
  EXPECT_TRUE(ch.check_inclusion());
}

TEST(Hierarchy, L2VictimForcesL1OutForInclusion) {
  CacheHierarchy ch = make_small();
  ch.fill(0, CacheState::kShared);
  // Block 256 collides with 0 in L2 (16 sets) AND in L1 (4 sets).
  const CacheLine victim = ch.fill(256, CacheState::kShared);
  EXPECT_TRUE(victim.valid());
  EXPECT_EQ(victim.block, 0u);
  EXPECT_FALSE(ch.probe(0).l1_hit);
  EXPECT_FALSE(ch.probe(0).l2_hit);
  EXPECT_TRUE(ch.check_inclusion());
}

TEST(Hierarchy, SetStateUpdatesBothLevels) {
  CacheHierarchy ch = make_small();
  ch.fill(0x40, CacheState::kLStemp);
  ch.set_state(0x40, CacheState::kModified);
  EXPECT_EQ(ch.probe(0x40).state, CacheState::kModified);
  EXPECT_EQ(ch.l1().find(0x40)->state, CacheState::kModified);
  EXPECT_EQ(ch.l2().find(0x40)->state, CacheState::kModified);
}

TEST(Hierarchy, SetStateWithL1EvictedUpdatesL2Only) {
  CacheHierarchy ch = make_small();
  ch.fill(0, CacheState::kLStemp);
  ch.fill(64, CacheState::kShared);  // 0 leaves L1.
  ch.set_state(0, CacheState::kModified);
  EXPECT_EQ(ch.l2().find(0)->state, CacheState::kModified);
  EXPECT_TRUE(ch.check_inclusion());
}

TEST(Hierarchy, InvalidateClearsBothLevels) {
  CacheHierarchy ch = make_small();
  ch.fill(0x40, CacheState::kModified);
  const CacheLine removed = ch.invalidate(0x40);
  EXPECT_EQ(removed.state, CacheState::kModified);
  EXPECT_FALSE(ch.probe(0x40).l2_hit);
  EXPECT_EQ(ch.l1().find(0x40), nullptr);
}

TEST(Hierarchy, RecordAccessKeepsLruFresh) {
  // Both levels 2-way: L1 2 sets, L2 8 sets of 16 B; 0, 128 and 256 share
  // a set in each.
  CacheHierarchy ch(CacheConfig{64, 2, 16}, CacheConfig{256, 2, 16});
  ch.fill(0, CacheState::kShared);
  ch.fill(128, CacheState::kShared);
  ch.record_access(ch.l1().find(0), *ch.l2().find(0));  // 0 is now MRU.
  const CacheLine victim = ch.fill(256, CacheState::kShared);
  EXPECT_EQ(victim.block, 128u);
  EXPECT_TRUE(ch.probe(0).l1_hit);
  EXPECT_TRUE(ch.check_inclusion());
}

}  // namespace
}  // namespace lssim

#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace lssim {
namespace {

CacheConfig small_dm() { return CacheConfig{256, 1, 16}; }   // 16 sets.
CacheConfig small_2way() { return CacheConfig{256, 2, 16}; }  // 8 sets.

TEST(Cache, MissOnEmpty) {
  Cache cache(small_dm());
  EXPECT_EQ(cache.find(0), nullptr);
}

TEST(Cache, InsertThenHit) {
  Cache cache(small_dm());
  cache.insert(0x40, CacheState::kShared);
  CacheLine* line = cache.find(0x40);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, CacheState::kShared);
  EXPECT_EQ(line->block, 0x40u);
}

TEST(Cache, BlockAlignment) {
  Cache cache(small_dm());
  EXPECT_EQ(cache.block_of(0x47), 0x40u);
  EXPECT_EQ(cache.block_of(0x40), 0x40u);
  EXPECT_EQ(cache.block_of(0x4f), 0x40u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  Cache cache(small_dm());
  // Same set: blocks 0 and 256 (16 sets * 16B blocks).
  cache.insert(0, CacheState::kShared);
  const CacheLine victim = cache.insert(256, CacheState::kModified);
  EXPECT_TRUE(victim.valid());
  EXPECT_EQ(victim.block, 0u);
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_NE(cache.find(256), nullptr);
}

TEST(Cache, TwoWayHoldsConflictPair) {
  Cache cache(small_2way());
  cache.insert(0, CacheState::kShared);
  const CacheLine victim = cache.insert(128, CacheState::kShared);
  EXPECT_FALSE(victim.valid());
  EXPECT_NE(cache.find(0), nullptr);
  EXPECT_NE(cache.find(128), nullptr);
}

TEST(Cache, LruEvictsLeastRecentlyTouched) {
  Cache cache(small_2way());
  cache.insert(0, CacheState::kShared);    // Set 0.
  cache.insert(128, CacheState::kShared);  // Set 0, second way.
  cache.touch(*cache.find(0));             // Make 0 the most recent.
  const CacheLine victim = cache.insert(256, CacheState::kShared);
  EXPECT_EQ(victim.block, 128u);
  EXPECT_NE(cache.find(0), nullptr);
}

TEST(Cache, InvalidateRemovesAndReturnsLine) {
  Cache cache(small_dm());
  cache.insert(0x40, CacheState::kModified);
  const CacheLine removed = cache.invalidate(0x40);
  EXPECT_EQ(removed.state, CacheState::kModified);
  EXPECT_EQ(cache.find(0x40), nullptr);
}

TEST(Cache, InvalidateMissingReturnsInvalid) {
  Cache cache(small_dm());
  const CacheLine removed = cache.invalidate(0x40);
  EXPECT_FALSE(removed.valid());
}

TEST(Cache, ValidLineCount) {
  Cache cache(small_dm());
  EXPECT_EQ(cache.valid_lines(), 0u);
  cache.insert(0, CacheState::kShared);
  cache.insert(16, CacheState::kShared);
  EXPECT_EQ(cache.valid_lines(), 2u);
  cache.invalidate(0);
  EXPECT_EQ(cache.valid_lines(), 1u);
}

TEST(Cache, LStempStateStored) {
  Cache cache(small_dm());
  cache.insert(0x80, CacheState::kLStemp);
  EXPECT_EQ(cache.find(0x80)->state, CacheState::kLStemp);
}

TEST(Cache, EvictedLineCarriesFalseSharingBookkeeping) {
  Cache cache(small_dm());
  cache.insert(0, CacheState::kShared);
  CacheLine* line = cache.find(0);
  line->fs_pending = true;
  line->grant_site = 7;
  const CacheLine victim = cache.insert(256, CacheState::kShared);
  EXPECT_TRUE(victim.fs_pending);
  EXPECT_EQ(victim.grant_site, 7u);
  // The refilled way starts clean.
  EXPECT_FALSE(cache.find(256)->fs_pending);
  EXPECT_EQ(cache.find(256)->grant_site, 0u);
}

TEST(Cache, HighAddressTags) {
  Cache cache(small_dm());
  const Addr high = (Addr{1} << 40) + 0x40;
  cache.insert(high, CacheState::kShared);
  EXPECT_NE(cache.find(high), nullptr);
  EXPECT_EQ(cache.find(0x40), nullptr);  // Same set, different tag.
}

}  // namespace
}  // namespace lssim

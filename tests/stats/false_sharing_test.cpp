#include "stats/false_sharing.hpp"

#include <gtest/gtest.h>

namespace lssim {
namespace {

TEST(WordMask, SingleWordAccess) {
  EXPECT_EQ(word_mask_of(0, 4, 32, 4), 0b1u);
  EXPECT_EQ(word_mask_of(4, 4, 32, 4), 0b10u);
  EXPECT_EQ(word_mask_of(28, 4, 32, 4), 1u << 7);
}

TEST(WordMask, EightByteAccessSpansTwoWords) {
  EXPECT_EQ(word_mask_of(0, 8, 32, 4), 0b11u);
  EXPECT_EQ(word_mask_of(8, 8, 32, 4), 0b1100u);
}

TEST(WordMask, OffsetWithinBlock) {
  // Address 0x48 in a 32-byte block: offset 8.
  EXPECT_EQ(word_mask_of(0x48, 4, 32, 4), 0b100u);
}

TEST(WordMask, LargeBlockUses64Words) {
  EXPECT_EQ(word_mask_of(252, 4, 256, 4), std::uint64_t{1} << 63);
}

class FsTest : public ::testing::Test {
 protected:
  FsTest() : stats_(4), fs_(true, stats_) {}
  Stats stats_;
  FalseSharingClassifier fs_;
};

TEST_F(FsTest, DisabledClassifierIsNoop) {
  Stats stats(4);
  FalseSharingClassifier fs(false, stats);
  fs.on_invalidated(0, 0x100);
  fs.on_write_words(1, 0x100, 0b1);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs.on_fill(0, 0x100, line);
  EXPECT_FALSE(line.fs_pending);
  EXPECT_EQ(stats.coherence_misses, 0u);
}

TEST_F(FsTest, ColdMissIsNotCoherenceMiss) {
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  EXPECT_FALSE(line.fs_pending);
  EXPECT_EQ(stats_.coherence_misses, 0u);
}

TEST_F(FsTest, TrueSharingDetectedOnIntersection) {
  // Node 0 invalidated; node 1 writes word 0; node 0 refetches and reads
  // word 0 -> true sharing (classified, not false).
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(1, 0x100, 0b1);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  EXPECT_TRUE(line.fs_pending);
  EXPECT_EQ(stats_.coherence_misses, 1u);
  fs_.on_access(0, line, 0b1);
  EXPECT_FALSE(line.fs_pending);
  fs_.on_line_death(0, line);
  EXPECT_EQ(stats_.false_sharing_misses, 0u);
}

TEST_F(FsTest, FalseSharingWhenDisjointWordsTouched) {
  // Node 1 wrote word 0, but node 0 only ever touches word 3.
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(1, 0x100, 0b1);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  fs_.on_access(0, line, 0b1000);
  EXPECT_TRUE(line.fs_pending);
  fs_.on_line_death(0, line);
  EXPECT_EQ(stats_.false_sharing_misses, 1u);
}

TEST_F(FsTest, WriterOwnWordsNotCountedAgainstIt) {
  // The writer's own mask must not accumulate into its own pending entry.
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(0, 0x100, 0b1);  // Node 0 itself writes? (no-op for 0)
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  EXPECT_TRUE(line.fs_pending);
  fs_.on_access(0, line, ~std::uint64_t{0});  // Empty foreign set.
  EXPECT_TRUE(line.fs_pending);
}

TEST_F(FsTest, MultipleForeignWritesAccumulate) {
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(1, 0x100, 0b01);
  fs_.on_write_words(2, 0x100, 0b10);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  fs_.on_access(0, line, 0b100);
  EXPECT_TRUE(line.fs_pending);
  fs_.on_access(0, line, 0b10);  // Node 2's word.
  EXPECT_FALSE(line.fs_pending);
}

TEST_F(FsTest, IndependentNodesTrackedSeparately) {
  fs_.on_invalidated(0, 0x100);
  fs_.on_invalidated(1, 0x100);
  fs_.on_write_words(2, 0x100, 0b100);
  CacheLine l0;
  l0.block = 0x100;
  l0.state = CacheState::kShared;
  CacheLine l1 = l0;
  fs_.on_fill(0, 0x100, l0);
  fs_.on_fill(1, 0x100, l1);
  EXPECT_EQ(stats_.coherence_misses, 2u);
  fs_.on_access(0, l0, 0b100);
  EXPECT_FALSE(l0.fs_pending);
  // Node 0's resolution leaves node 1's copy pending on its own mask.
  fs_.on_access(1, l1, 0b011);
  EXPECT_TRUE(l1.fs_pending);
  fs_.on_access(1, l1, 0b100);
  EXPECT_FALSE(l1.fs_pending);
}

TEST_F(FsTest, RefetchClearsPendingState) {
  fs_.on_invalidated(0, 0x100);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  // Second fill without another invalidation: cold/replacement miss.
  CacheLine line2;
  line2.block = 0x100;
  line2.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line2);
  EXPECT_FALSE(line2.fs_pending);
  EXPECT_EQ(stats_.coherence_misses, 1u);
}

TEST_F(FsTest, SecondLifetimeSeesOnlyWritesAfterItsInvalidation) {
  // First lifetime: node 1 writes word 0, node 0's refilled copy never
  // touches it and dies pending (one false-sharing miss).
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(1, 0x100, 0b01);
  CacheLine line;
  line.block = 0x100;
  line.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, line);
  fs_.on_access(0, line, 0b10);
  fs_.on_line_death(0, line);
  EXPECT_EQ(stats_.false_sharing_misses, 1u);
  // Second lifetime: invalidated again, node 2 writes word 1 only.
  fs_.on_invalidated(0, 0x100);
  fs_.on_write_words(2, 0x100, 0b10);
  CacheLine refill;
  refill.block = 0x100;
  refill.state = CacheState::kShared;
  fs_.on_fill(0, 0x100, refill);
  EXPECT_EQ(stats_.coherence_misses, 2u);
  fs_.on_access(0, refill, 0b01);  // Word 0's write predates this miss.
  EXPECT_TRUE(refill.fs_pending);
  fs_.on_access(0, refill, 0b10);
  EXPECT_FALSE(refill.fs_pending);
  fs_.on_line_death(0, refill);
  EXPECT_EQ(stats_.false_sharing_misses, 1u);
}

TEST_F(FsTest, BlocksDifferingOnlyInHighAddressBitsStayApart) {
  // Trace replay accepts any 64-bit address: a write to one block must
  // never be credited to another that differs only in bits 58-63.
  const Addr a = 0x100;
  const Addr b = a + (Addr{1} << 58);
  fs_.on_invalidated(1, a);
  fs_.on_invalidated(1, b);
  fs_.on_write_words(0, b, 0b1111);
  CacheLine line;
  line.block = a;
  line.state = CacheState::kShared;
  fs_.on_fill(1, a, line);
  EXPECT_TRUE(line.fs_pending);
  fs_.on_access(1, line, 0b1111);
  EXPECT_TRUE(line.fs_pending);
  CacheLine other;
  other.block = b;
  other.state = CacheState::kShared;
  fs_.on_fill(1, b, other);
  fs_.on_access(1, other, 0b1000);
  EXPECT_FALSE(other.fs_pending);
}

}  // namespace
}  // namespace lssim

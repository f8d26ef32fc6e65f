// Directory over its BlockTable: the MRU slot across re-access and
// growth, and default_tagged across growth. The table itself (growth,
// probing, erase, victim order) is tested in sim/block_table_test.cpp;
// protocol-visible semantics are in directory_test.cpp.
#include "core/directory.hpp"

#include <cstddef>

#include <gtest/gtest.h>

namespace lssim {
namespace {

TEST(FlatDirectory, RepeatedAccessReturnsSameEntry) {
  // The one-entry MRU cache must hand back the identical slot, and a
  // re-access after touching another block (MRU miss) must still find it.
  Directory dir;
  dir.entry(0x1000).sharers = 0x8;
  DirEntry& again = dir.entry(0x1000);
  EXPECT_EQ(again.sharers, 0x8u);
  (void)dir.entry(0x2000);
  EXPECT_EQ(dir.entry(0x1000).sharers, 0x8u);
  EXPECT_EQ(dir.size(), 2u);
}

TEST(FlatDirectory, GrowthInvalidatesMruCache) {
  // Regression test for the one-entry MRU cache across a rehash. grow()
  // moves every slot, so a stale (mru_key_, mru_index_) pair from before
  // the growth would alias some other block's slot — or an empty one —
  // on the very next same-block re-access. Arrange for a block to be the
  // MRU entry at the exact moment an insert triggers growth, then check
  // both it and its neighbours survived with their own contents.
  Directory dir;
  const Addr kHot = 0x40;
  dir.entry(kHot).owner = 7;
  dir.entry(kHot).sharers = 0x20;  // Re-access: kHot is now the MRU block.
  std::size_t filled = 1;
  while (dir.capacity() == 0 || dir.size() < dir.capacity() - dir.capacity() / 4) {
    // Park the MRU on kHot before every insert so whichever insert
    // grows the table grows it "through" the MRU'd entry.
    ASSERT_EQ(dir.entry(kHot).owner, 7);
    dir.entry(static_cast<Addr>(0x10000 + filled * 64)).last_writer =
        static_cast<NodeId>(filled % 60);
    ++filled;
  }
  const std::size_t before = dir.capacity();
  ASSERT_EQ(dir.entry(kHot).owner, 7);  // MRU primed on kHot...
  dir.entry(static_cast<Addr>(0x10000 + filled * 64)).last_writer = 1;
  ASSERT_GT(dir.capacity(), before) << "insert was meant to trigger growth";
  // Post-growth, the hot block must resolve to its own (moved) slot.
  const DirEntry* hot = dir.find(kHot);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->owner, 7);
  EXPECT_EQ(hot->sharers, 0x20u);
  // And the MRU fast path (entry after find) must agree with the probe.
  EXPECT_EQ(&dir.entry(kHot), hot);
  for (std::size_t i = 1; i < filled; ++i) {
    const DirEntry* e = dir.find(static_cast<Addr>(0x10000 + i * 64));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->last_writer, static_cast<NodeId>(i % 60));
  }
}

TEST(FlatDirectory, DefaultTaggedAppliesAcrossGrowth) {
  Directory dir(/*default_tagged=*/true);
  for (Addr i = 0; i < 1000; ++i) {
    (void)dir.entry(i * 64);
  }
  std::size_t tagged = 0;
  dir.for_each([&](Addr, const DirEntry& e) { tagged += e.tagged ? 1 : 0; });
  EXPECT_EQ(tagged, 1000u);
}

}  // namespace
}  // namespace lssim

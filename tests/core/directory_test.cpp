#include "core/directory.hpp"

#include <gtest/gtest.h>

#include "core/directory_policy.hpp"

namespace lssim {
namespace {

TEST(Directory, EntriesStartUncachedUntagged) {
  Directory dir;
  const DirEntry& e = dir.entry(0x100);
  EXPECT_EQ(e.state, DirState::kUncached);
  EXPECT_FALSE(e.tagged);
  EXPECT_EQ(e.owner, kInvalidNode);
  EXPECT_EQ(e.last_reader, kInvalidNode);
  EXPECT_EQ(e.last_writer, kInvalidNode);
  EXPECT_EQ(e.sharers, 0u);
}

TEST(Directory, DefaultTaggedVariation) {
  Directory dir(/*default_tagged=*/true);
  EXPECT_TRUE(dir.entry(0x100).tagged);
}

TEST(Directory, EntryPersists) {
  Directory dir;
  dir.entry(0x40).tagged = true;
  EXPECT_TRUE(dir.entry(0x40).tagged);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(Directory, FindDoesNotCreate) {
  Directory dir;
  EXPECT_EQ(dir.find(0x40), nullptr);
  EXPECT_EQ(dir.size(), 0u);
  (void)dir.entry(0x40);
  EXPECT_NE(dir.find(0x40), nullptr);
}

TEST(DirEntry, SharerBitmapOperations) {
  // Under the paper's full-map organisation the sharer word is a
  // presence bitmap: bit n = node n.
  MachineConfig config;
  config.num_nodes = 64;
  const auto full_map = make_directory_policy(config);
  DirEntry e;
  full_map->add_sharer(e, 0);
  full_map->add_sharer(e, 5);
  full_map->add_sharer(e, 63);
  EXPECT_EQ(e.sharers, (1ull << 0) | (1ull << 5) | (1ull << 63));
  EXPECT_TRUE(full_map->may_be_sharer(e, 0));
  EXPECT_TRUE(full_map->may_be_sharer(e, 5));
  EXPECT_TRUE(full_map->may_be_sharer(e, 63));
  EXPECT_FALSE(full_map->may_be_sharer(e, 1));
  full_map->remove_sharer(e, 5);
  EXPECT_EQ(full_map->believed_sharers(e).count(), 2);
  EXPECT_FALSE(full_map->may_be_sharer(e, 5));
  full_map->add_sharer(e, 0);  // Idempotent.
  EXPECT_EQ(e.sharers, (1ull << 0) | (1ull << 63));
}

TEST(Directory, ForEachVisitsAllEntries) {
  Directory dir;
  (void)dir.entry(0x10);
  (void)dir.entry(0x20);
  (void)dir.entry(0x30);
  int count = 0;
  dir.for_each([&](Addr, const DirEntry&) { ++count; });
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace lssim

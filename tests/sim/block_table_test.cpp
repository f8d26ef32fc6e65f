// BlockTable, the open-addressing table under Directory and
// LoadStoreOracle: growth, probing, backward-shift erase, iteration parity
// against a reference map and the sparse directory's victim order.
// Directory-level behaviour (the MRU slot through entry(), default_tagged)
// is in core/flat_directory_test.cpp.
#include "sim/block_table.hpp"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace lssim {
namespace {

struct Value {
  std::uint32_t owner = 0;
  bool tagged = false;
};

TEST(BlockTable, GrowsPastInitialCapacityWithoutLosingEntries) {
  BlockTable<Value> table;
  const std::size_t kCount = 10000;  // Forces several doublings from 256.
  for (std::size_t i = 0; i < kCount; ++i) {
    Value& v = table.entry(static_cast<Addr>(i * 64));
    v.owner = static_cast<std::uint32_t>(i % 64);
    v.tagged = (i % 3) == 0;
  }
  EXPECT_EQ(table.size(), kCount);
  EXPECT_GT(table.capacity(), 256u);
  // Power-of-two capacity is what makes the mask-based probe valid.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  // Load factor stays below the 3/4 growth threshold.
  EXPECT_LE(table.size(), table.capacity() - table.capacity() / 4);
  for (std::size_t i = 0; i < kCount; ++i) {
    const Value* v = table.find(static_cast<Addr>(i * 64));
    ASSERT_NE(v, nullptr) << "lost block " << i * 64 << " after growth";
    EXPECT_EQ(v->owner, static_cast<std::uint32_t>(i % 64));
    EXPECT_EQ(v->tagged, (i % 3) == 0);
  }
}

TEST(BlockTable, CollidingStridesProbePastOccupiedSlots) {
  // Large power-of-two strides alias heavily under a mask-based table;
  // every block must still get its own value via linear probing.
  BlockTable<std::uint64_t> table;
  const Addr kStride = Addr{1} << 20;
  for (Addr i = 0; i < 512; ++i) {
    table.entry(i * kStride) = i % 60;
  }
  EXPECT_EQ(table.size(), 512u);
  for (Addr i = 0; i < 512; ++i) {
    const std::uint64_t* v = table.find(i * kStride);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i % 60);
  }
}

TEST(BlockTable, IterationParityWithReferenceMap) {
  // The same mixed entry()/find()/erase() sequence applied to the table
  // and to a std::unordered_map; contents must match exactly.
  BlockTable<std::uint64_t> table;
  std::unordered_map<Addr, std::uint64_t> ref;
  std::uint64_t lcg = 12345;
  for (int op = 0; op < 20000; ++op) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Small block pool so re-access (the MRU path) is common.
    const Addr block = ((lcg >> 33) % 3000) * 32;
    if ((lcg >> 20) % 8 == 0) {
      EXPECT_EQ(table.erase(block), ref.erase(block) == 1);
      continue;
    }
    const auto value = static_cast<std::uint64_t>(op);
    table.entry(block) = value;
    ref[block] = value;
  }
  EXPECT_EQ(table.size(), ref.size());
  std::size_t visited = 0;
  table.for_each([&](Addr block, const std::uint64_t& v) {
    ++visited;
    auto it = ref.find(block);
    ASSERT_NE(it, ref.end()) << "phantom block " << block;
    EXPECT_EQ(v, it->second) << "stale value for " << block;
  });
  EXPECT_EQ(visited, ref.size());
  // Every surviving key is still reachable after the backward shifts.
  for (const auto& [block, value] : ref) {
    const std::uint64_t* v = table.find(block);
    ASSERT_NE(v, nullptr) << "unreachable block " << block;
    EXPECT_EQ(*v, value);
  }
  // Absent keys stay absent: find never inserts.
  for (Addr probe = 1; probe < 64; ++probe) {
    EXPECT_EQ(table.find(3000 * 32 + probe * 32), nullptr);
  }
  EXPECT_EQ(table.size(), ref.size());
}

TEST(BlockTable, AddressZeroIsAValidBlock) {
  BlockTable<Value> table;
  table.entry(0).tagged = true;
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_TRUE(table.find(0)->tagged);
  EXPECT_TRUE(table.erase(0));
  EXPECT_EQ(table.find(0), nullptr);
}

TEST(BlockTable, OnInsertRunsOncePerNewValue) {
  BlockTable<Value> table;
  int inserts = 0;
  auto mark = [&](Value& v) {
    ++inserts;
    v.tagged = true;
  };
  EXPECT_TRUE(table.entry(0x40, mark).tagged);
  table.entry(0x40, mark).tagged = false;
  EXPECT_FALSE(table.entry(0x40, mark).tagged);
  EXPECT_EQ(inserts, 1);
  ASSERT_TRUE(table.erase(0x40));
  EXPECT_TRUE(table.entry(0x40, mark).tagged);  // Re-inserted fresh.
  EXPECT_EQ(inserts, 2);
}

TEST(BlockTable, VictimSequenceIsPinned) {
  // The sparse directory's replacement: a bounded population where each
  // insert into a full table first erases victim_for(incoming). The
  // victim order is a simulated result (the sparse rows of
  // ablation_directory), so it must not move when the table changes.
  BlockTable<std::uint64_t> table;
  const std::size_t kBound = 200;
  table.reserve(kBound);
  std::uint64_t lcg = 42;
  std::uint64_t fnv = 14695981039346656037ull;
  std::size_t victims = 0;
  std::vector<Addr> first;
  for (int op = 0; op < 20000; ++op) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const Addr block = ((lcg >> 33) % 1000) * 64;
    if (table.find(block) != nullptr) {
      if ((lcg >> 20) % 4 == 0) table.erase(block);
      continue;
    }
    if (table.size() == kBound) {
      const Addr victim = table.victim_for(block);
      ASSERT_TRUE(table.erase(victim));
      ++victims;
      if (first.size() < 8) first.push_back(victim);
      fnv = (fnv ^ victim) * 1099511628211ull;
    }
    (void)table.entry(block);
  }
  EXPECT_EQ(table.capacity(), 512u);
  EXPECT_EQ(table.size(), kBound);
  EXPECT_EQ(victims, 14860u);
  EXPECT_EQ(first, (std::vector<Addr>{0xd5c0, 0x8f40, 0xcdc0, 0xec80, 0xf940,
                                      0x2900, 0x9e00, 0xda40}));
  EXPECT_EQ(fnv, 0x7b0e067e2499c155ull);
}

}  // namespace
}  // namespace lssim

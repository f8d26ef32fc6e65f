#include "mem/address_space.hpp"

#include <gtest/gtest.h>

namespace lssim {
namespace {

constexpr Addr kChunk = AddressSpace::kChunkBytes;

TEST(AddressSpace, RoundRobinHomeAssignment) {
  AddressSpace space(4, 4096);
  EXPECT_EQ(space.home_of(0), 0);
  EXPECT_EQ(space.home_of(4095), 0);
  EXPECT_EQ(space.home_of(4096), 1);
  EXPECT_EQ(space.home_of(2 * 4096), 2);
  EXPECT_EQ(space.home_of(3 * 4096), 3);
  EXPECT_EQ(space.home_of(4 * 4096), 0);  // Wraps.
}

TEST(AddressSpace, SingleNodeOwnsEverything) {
  AddressSpace space(1, 4096);
  EXPECT_EQ(space.home_of(0), 0);
  EXPECT_EQ(space.home_of(123456789), 0);
}

TEST(AddressSpace, UntouchedMemoryReadsZero) {
  AddressSpace space(4, 4096);
  EXPECT_EQ(space.load(0x1234, 4), 0u);
  EXPECT_EQ(space.resident_chunks(), 0u);
  space.store(0x100, 8, 5);
  // A load of another, untouched chunk leaves the count unchanged.
  EXPECT_EQ(space.load(0x100 + kChunk, 8), 0u);
  EXPECT_EQ(space.load(0x100 - kChunk, 1), 0u);
  EXPECT_EQ(space.resident_chunks(), 1u);
}

TEST(AddressSpace, StoreLoadRoundTrip) {
  AddressSpace space(4, 4096);
  space.store(0x100, 8, 0x1122334455667788ull);
  EXPECT_EQ(space.load(0x100, 8), 0x1122334455667788ull);
  EXPECT_EQ(space.load(0x100, 4), 0x55667788u);
  EXPECT_EQ(space.load(0x104, 4), 0x11223344u);
  EXPECT_EQ(space.load(0x100, 1), 0x88u);
}

TEST(AddressSpace, PartialStorePreservesNeighbours) {
  AddressSpace space(4, 4096);
  space.store(0x200, 8, 0xffffffffffffffffull);
  space.store(0x202, 2, 0);
  EXPECT_EQ(space.load(0x200, 8), 0xffffffff0000ffffull);
}

TEST(AddressSpace, StoreKeepsOnlyTheLowBytesOfItsValue) {
  AddressSpace space(4, 4096);
  space.store(0x40, 1, 0x1122334455667788ull);
  space.store(0x42, 2, 0x1122334455667788ull);
  space.store(0x44, 4, 0x1122334455667788ull);
  EXPECT_EQ(space.load(0x40, 8), 0x5566778877880088ull);
}

TEST(AddressSpace, EverySizeAtEveryOffsetInAChunk) {
  for (const unsigned size : {1u, 2u, 4u, 8u}) {
    for (Addr offset = 0; offset < kChunk; offset += size) {
      AddressSpace space(4, 4096);
      const Addr base = 7 * kChunk;
      // Fill the chunk and both neighbours with a byte pattern, then
      // overwrite one access and check every byte around it.
      for (Addr a = base - kChunk; a < base + 2 * kChunk; ++a) {
        space.store(a, 1, 0xA5);
      }
      const std::uint64_t value = 0x0102030405060708ull;
      space.store(base + offset, size, value);
      const std::uint64_t mask = size == 8
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << (8 * size)) - 1;
      EXPECT_EQ(space.load(base + offset, size), value & mask)
          << "size " << size << " offset " << offset;
      for (Addr a = base - kChunk; a < base + 2 * kChunk; ++a) {
        if (a >= base + offset && a < base + offset + size) {
          const unsigned shift = 8 * static_cast<unsigned>(a - base - offset);
          EXPECT_EQ(space.load(a, 1), (value >> shift) & 0xFF);
        } else {
          ASSERT_EQ(space.load(a, 1), 0xA5u)
              << "size " << size << " offset " << offset << " byte " << a;
        }
      }
      EXPECT_EQ(space.resident_chunks(), 3u);
    }
  }
}

TEST(AddressSpace, StoresOnBothSidesOfAChunkEdge) {
  AddressSpace space(4, 4096);
  const Addr edge = 5 * kChunk;
  space.store(edge - 8, 8, 0x1111111111111111ull);
  space.store(edge, 8, 0x2222222222222222ull);
  EXPECT_EQ(space.resident_chunks(), 2u);
  EXPECT_EQ(space.load(edge - 8, 8), 0x1111111111111111ull);
  EXPECT_EQ(space.load(edge, 8), 0x2222222222222222ull);
  EXPECT_EQ(space.load(edge - 1, 1), 0x11u);
  EXPECT_EQ(space.load(edge, 1), 0x22u);
  EXPECT_EQ(space.load(edge - 16, 8), 0u);
  EXPECT_EQ(space.load(edge + 8, 8), 0u);
}

TEST(AddressSpace, ChunksMaterializeLazily) {
  AddressSpace space(4, 4096);
  space.store(0, 4, 1);
  EXPECT_EQ(space.resident_chunks(), 1u);
  space.store(kChunk - 4, 4, 1);  // Same first chunk.
  EXPECT_EQ(space.resident_chunks(), 1u);
  space.store(kChunk, 4, 1);
  EXPECT_EQ(space.resident_chunks(), 2u);
  space.store(4096, 4, 1);  // Another page: one more chunk, not a page.
  EXPECT_EQ(space.resident_chunks(), 3u);
}

TEST(AddressSpace, HighAddressesWork) {
  AddressSpace space(4, 4096);
  const Addr arena = Addr{1} << 40;  // SharedHeap's global arena.
  space.store(arena, 8, 42);
  EXPECT_EQ(space.load(arena, 8), 42u);
  const Addr highest = ~Addr{0} & ~(kChunk - 1);
  space.store(highest, 8, 7);
  space.store(highest + kChunk - 8, 8, 9);  // The last 8 bytes of memory.
  space.store(highest + kChunk - 1, 1, 0xEE);
  EXPECT_EQ(space.load(highest, 8), 7u);
  EXPECT_EQ(space.load(highest + kChunk - 8, 4), 9u);
  EXPECT_EQ(space.load(highest + kChunk - 1, 1), 0xEEu);
  EXPECT_EQ(space.resident_chunks(), 2u);
  EXPECT_EQ(space.load(arena + 8, 8), 0u);
}

TEST(AddressSpace, DistinctPagesAreIndependent) {
  AddressSpace space(2, 4096);
  space.store(100, 4, 7);
  space.store(4096 + 100, 4, 9);
  EXPECT_EQ(space.load(100, 4), 7u);
  EXPECT_EQ(space.load(4096 + 100, 4), 9u);
}

TEST(AddressSpace, ManyChunksSurviveTableGrowth) {
  AddressSpace space(4, 4096);
  constexpr Addr kChunks = 5000;  // Several doublings of the table.
  for (Addr i = 0; i < kChunks; ++i) {
    space.store(i * 4096 + 8, 8, i * 3 + 1);
  }
  EXPECT_EQ(space.resident_chunks(), kChunks);
  for (Addr i = 0; i < kChunks; ++i) {
    ASSERT_EQ(space.load(i * 4096 + 8, 8), i * 3 + 1) << i;
    ASSERT_EQ(space.load(i * 4096, 8), 0u) << i;
  }
}

TEST(AddressSpace, AlignedAcceptsOnlyNaturallyAlignedSizes) {
  EXPECT_TRUE(AddressSpace::aligned(0x13, 1));
  EXPECT_TRUE(AddressSpace::aligned(0x12, 2));
  EXPECT_TRUE(AddressSpace::aligned(0x14, 4));
  EXPECT_TRUE(AddressSpace::aligned(0x18, 8));
  EXPECT_FALSE(AddressSpace::aligned(0x13, 2));
  EXPECT_FALSE(AddressSpace::aligned(0x12, 4));
  EXPECT_FALSE(AddressSpace::aligned(0x3C, 8));
  EXPECT_FALSE(AddressSpace::aligned(0x40, 0));
  EXPECT_FALSE(AddressSpace::aligned(0x40, 3));
  EXPECT_FALSE(AddressSpace::aligned(0x40, 16));
}

}  // namespace
}  // namespace lssim

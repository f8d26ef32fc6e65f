// DirectoryPolicy unit tests: the two sharer-word encodings (bit vector
// and limited pointers) exercised directly on a DirEntry (no protocol
// engine) under the parameters of each of the four organisations, plus
// make_directory_policy and the name table the driver and manifests
// resolve through.
// Protocol-visible behaviour of each organisation lives in
// limited_directory_test.cpp / sparse_directory_test.cpp and the
// cross-organization equivalence suite under tests/check/.
#include "core/directory_policy.hpp"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace lssim {
namespace {

std::vector<int> nodes_of(const SharerSet& set) {
  std::vector<int> out;
  set.for_each([&](NodeId n) { out.push_back(n); });
  return out;
}

// --- Full-map: exact presence bitmap, believed == actual always. ---

TEST(FullMapPolicy, BitmapIsExactAndNeverImprecise) {
  BitVectorDirectory policy(/*region=*/1, /*num_nodes=*/64,
                            /*max_entries=*/0);
  DirEntry e;
  policy.add_sharer(e, 0);
  policy.add_sharer(e, 5);
  policy.add_sharer(e, 63);
  policy.add_sharer(e, 5);  // Idempotent.
  EXPECT_EQ(e.sharers, (1ull << 0) | (1ull << 5) | (1ull << 63));
  EXPECT_FALSE(e.imprecise);
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)),
            (std::vector<int>{0, 5, 63}));
  EXPECT_TRUE(policy.may_be_sharer(e, 5));
  EXPECT_FALSE(policy.may_be_sharer(e, 6));

  policy.remove_sharer(e, 5);
  EXPECT_FALSE(policy.may_be_sharer(e, 5));
  policy.remove_sharer(e, 0);
  policy.remove_sharer(e, 63);
  EXPECT_TRUE(policy.believed_empty(e));
  EXPECT_EQ(policy.max_entries(), 0u) << "full-map is unbounded";
}

// --- Limited-pointer Dir_iB. ---

TEST(LimitedPtrPolicy, StoresRealPointersUpToTheLimit) {
  LimitedPtrDirectory policy(/*pointers=*/3, /*num_nodes=*/16);
  DirEntry e;
  policy.add_sharer(e, 9);
  policy.add_sharer(e, 2);
  policy.add_sharer(e, 14);
  policy.add_sharer(e, 2);  // Duplicate: must not burn a slot.
  EXPECT_FALSE(e.imprecise);
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)),
            (std::vector<int>{2, 9, 14}));
  EXPECT_TRUE(policy.may_be_sharer(e, 14));
  EXPECT_FALSE(policy.may_be_sharer(e, 3));
}

TEST(LimitedPtrPolicy, OverflowTurnsImpreciseAndBroadcasts) {
  LimitedPtrDirectory policy(/*pointers=*/2, /*num_nodes=*/8);
  DirEntry e;
  policy.add_sharer(e, 1);
  policy.add_sharer(e, 2);
  EXPECT_FALSE(e.imprecise);
  policy.add_sharer(e, 3);  // Third sharer, two pointers: overflow.
  EXPECT_TRUE(e.imprecise);
  // Believed set becomes every node in the machine — a superset of the
  // actual {1, 2, 3} — and stays that way.
  EXPECT_EQ(policy.believed_sharers(e).count(), 8);
  EXPECT_TRUE(policy.may_be_sharer(e, 7));
  EXPECT_FALSE(policy.may_be_sharer(e, 8)) << "bounded by the machine";
  // Replacement hints cannot shrink an overflowed set.
  policy.remove_sharer(e, 1);
  EXPECT_EQ(policy.believed_sharers(e).count(), 8);
  EXPECT_FALSE(policy.believed_empty(e));
  // Invalidation targets exclude the requester itself.
  EXPECT_EQ(policy.invalidation_targets(e, 4).count(), 7);
  EXPECT_FALSE(policy.invalidation_targets(e, 4).test(4));
  // clear_sharers (ownership transfer) re-precises the entry.
  policy.clear_sharers(e);
  EXPECT_TRUE(policy.believed_empty(e));
  EXPECT_FALSE(e.imprecise);
}

TEST(LimitedPtrPolicy, RemoveCompactsPointerSlots) {
  LimitedPtrDirectory policy(/*pointers=*/4, /*num_nodes=*/32);
  DirEntry e;
  for (NodeId n : {10, 20, 30}) policy.add_sharer(e, n);
  policy.remove_sharer(e, 10);  // Last pointer (30) moves into slot 0.
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)),
            (std::vector<int>{20, 30}));
  policy.add_sharer(e, 10);  // Freed slot is reusable without overflow.
  policy.add_sharer(e, 11);
  EXPECT_FALSE(e.imprecise);
  EXPECT_EQ(policy.believed_sharers(e).count(), 4);
  policy.remove_sharer(e, 20);
  policy.remove_sharer(e, 30);
  policy.remove_sharer(e, 10);
  policy.remove_sharer(e, 11);
  EXPECT_TRUE(policy.believed_empty(e));
}

// --- Coarse bit-vector. ---

TEST(CoarsePolicy, RegionOneDegeneratesToFullMap) {
  BitVectorDirectory policy(/*region=*/1, /*num_nodes=*/64,
                            /*max_entries=*/0);
  DirEntry e;
  policy.add_sharer(e, 5);
  policy.add_sharer(e, 41);
  EXPECT_FALSE(e.imprecise);
  EXPECT_EQ(e.sharers, (1ull << 5) | (1ull << 41));
  policy.remove_sharer(e, 5);  // Exact regions honour hints.
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)), (std::vector<int>{41}));
}

TEST(CoarsePolicy, RegionBitsCoverWholeRegions) {
  BitVectorDirectory policy(/*region=*/4, /*num_nodes=*/16,
                            /*max_entries=*/0);
  DirEntry e;
  policy.add_sharer(e, 6);  // Region 1 = nodes 4..7.
  EXPECT_TRUE(e.imprecise);
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)),
            (std::vector<int>{4, 5, 6, 7}));
  EXPECT_TRUE(policy.may_be_sharer(e, 4)) << "same region as 6";
  EXPECT_FALSE(policy.may_be_sharer(e, 8));
  // Hints cannot clear a region bit: node 7 may still hold the block.
  policy.remove_sharer(e, 6);
  EXPECT_EQ(policy.believed_sharers(e).count(), 4);
  EXPECT_FALSE(policy.believed_empty(e));
  policy.clear_sharers(e);
  EXPECT_TRUE(policy.believed_empty(e));
  EXPECT_FALSE(e.imprecise);
}

TEST(CoarsePolicy, AutoRegionCoversMachinesPast64Nodes) {
  // region == 0 -> ceil(num_nodes / 64): 128 nodes need 2-node regions.
  BitVectorDirectory policy(/*region=*/0, /*num_nodes=*/128,
                            /*max_entries=*/0);
  DirEntry e;
  policy.add_sharer(e, 127);
  EXPECT_TRUE(e.imprecise);
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)),
            (std::vector<int>{126, 127}));
  // The believed set is clipped to the machine: the last region of a
  // 100-node machine with auto regions covers only existing nodes.
  BitVectorDirectory clipped(/*region=*/0, /*num_nodes=*/100,
                             /*max_entries=*/0);
  DirEntry f;
  clipped.add_sharer(f, 99);
  EXPECT_EQ(nodes_of(clipped.believed_sharers(f)),
            (std::vector<int>{98, 99}));
}

// --- Sparse directory: auto-region bit vector + bounded population. ---

TEST(SparsePolicy, BoundsTheEntryPopulation) {
  MachineConfig config;
  config.num_nodes = 64;
  config.directory_scheme = DirectoryKind::kSparse;
  config.directory_entries = 256;
  const std::unique_ptr<DirectoryPolicy> sparse =
      make_directory_policy(config);
  const DirectoryPolicy& policy = *sparse;
  EXPECT_EQ(policy.max_entries(), 256u);
  // Default bound and auto-sized exact encoding at <= 64 nodes.
  config.directory_entries = 0;
  EXPECT_EQ(make_directory_policy(config)->max_entries(),
            BitVectorDirectory::kDefaultSparseEntries);
  EXPECT_EQ(BitVectorDirectory::kDefaultSparseEntries, 1024u);
  DirEntry e;
  policy.add_sharer(e, 17);
  EXPECT_FALSE(e.imprecise) << "64-node sparse uses exact 1-node regions";
  EXPECT_EQ(nodes_of(policy.believed_sharers(e)), (std::vector<int>{17}));
}

// --- Name table and factory. ---

TEST(DirectoryRegistry, EveryKindIsRegisteredInOrder) {
  ASSERT_EQ(kDirectoryNames.rows.size(),
            static_cast<std::size_t>(kNumDirectoryKinds));
  for (std::size_t i = 0; i < kDirectoryNames.rows.size(); ++i) {
    const DirectoryKind kind = kDirectoryNames.rows[i].kind;
    EXPECT_EQ(static_cast<std::size_t>(kind), i);
    MachineConfig config;
    config.num_nodes = 8;
    config.directory_scheme = kind;
    const std::unique_ptr<DirectoryPolicy> policy =
        make_directory_policy(config);
    ASSERT_NE(policy, nullptr) << kDirectoryNames.name(kind);
    // Only the sparse organisation bounds its population.
    EXPECT_EQ(policy->max_entries() != 0, kind == DirectoryKind::kSparse)
        << kDirectoryNames.name(kind);
  }
}

TEST(DirectoryRegistry, FindResolvesNamesAndAliasesCaseInsensitively) {
  const struct {
    const char* name;
    DirectoryKind kind;
  } cases[] = {
      {"full-map", DirectoryKind::kFullMap},
      {"fullmap", DirectoryKind::kFullMap},
      {"FULL", DirectoryKind::kFullMap},
      {"limited-ptr", DirectoryKind::kLimitedPtr},
      {"dir-ib", DirectoryKind::kLimitedPtr},
      {"DirIB", DirectoryKind::kLimitedPtr},
      {"coarse-vector", DirectoryKind::kCoarseVector},
      {"region", DirectoryKind::kCoarseVector},
      {"sparse", DirectoryKind::kSparse},
      {"directory-cache", DirectoryKind::kSparse},
      {"dir-cache", DirectoryKind::kSparse},
  };
  for (const auto& c : cases) {
    DirectoryKind kind;
    ASSERT_TRUE(kDirectoryNames.parse(c.name, &kind)) << c.name;
    EXPECT_EQ(kind, c.kind) << c.name;
  }
  DirectoryKind kind;
  EXPECT_FALSE(kDirectoryNames.parse("mesif", &kind));
  EXPECT_FALSE(kDirectoryNames.parse("", &kind));
}

TEST(DirectoryRegistry, RegisteredNamesListsEveryOrganisation) {
  const std::string names = kDirectoryNames.joined();
  for (const char* expected :
       {"full-map", "limited-ptr", "coarse", "sparse"}) {
    EXPECT_NE(names.find(expected), std::string::npos) << names;
  }
}

TEST(DirectoryRegistry, FactoryHonoursMachineKnobs) {
  MachineConfig config;
  config.num_nodes = 8;
  config.directory_scheme = DirectoryKind::kLimitedPtr;
  config.directory_pointers = 2;
  std::unique_ptr<DirectoryPolicy> policy = make_directory_policy(config);
  ASSERT_NE(policy, nullptr);
  DirEntry e;
  policy->add_sharer(e, 0);
  policy->add_sharer(e, 1);
  policy->add_sharer(e, 2);  // Third sharer overflows 2 pointers.
  EXPECT_TRUE(e.imprecise);
  EXPECT_EQ(policy->believed_sharers(e).count(), config.num_nodes);

  config.directory_scheme = DirectoryKind::kSparse;
  config.directory_entries = 32;
  EXPECT_EQ(make_directory_policy(config)->max_entries(), 32u);
  config.directory_scheme = DirectoryKind::kFullMap;
  policy = make_directory_policy(config);
  DirEntry full;
  policy->add_sharer(full, 0);
  policy->add_sharer(full, 1);
  policy->add_sharer(full, 2);
  EXPECT_FALSE(full.imprecise) << "full-map is exact";
  EXPECT_EQ(full.sharers, 0x7u) << "bit n = node n";
  EXPECT_EQ(policy->max_entries(), 0u);

  config.directory_scheme = DirectoryKind::kCoarseVector;
  config.directory_region = 2;
  policy = make_directory_policy(config);
  DirEntry coarse;
  policy->add_sharer(coarse, 5);
  EXPECT_EQ(nodes_of(policy->believed_sharers(coarse)),
            (std::vector<int>{4, 5}))
      << "--dir-region sets the region width";
}

}  // namespace
}  // namespace lssim

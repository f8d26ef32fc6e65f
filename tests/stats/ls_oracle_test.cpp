#include "stats/ls_oracle.hpp"

#include <array>
#include <cstdint>
#include <unordered_map>

#include <gtest/gtest.h>

namespace lssim {
namespace {

TEST(LsOracle, SimpleLoadStoreSequence) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.global_writes, 1u);
  EXPECT_EQ(c.ls_writes, 1u);
  EXPECT_EQ(c.migratory_writes, 0u);  // First sequence: no prior owner.
}

TEST(LsOracle, LoneWriteIsNotLoadStore) {
  LoadStoreOracle oracle(true);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.global_writes, 1u);
  EXPECT_EQ(c.ls_writes, 0u);
}

TEST(LsOracle, InterveningReadBreaksSequence) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_read(1, 0x100);  // Overwrites the pending reader.
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  EXPECT_EQ(oracle.total().ls_writes, 0u);
}

TEST(LsOracle, InterveningWriteBreaksSequence) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(1, 0x100, false, StreamTag::kApp);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.global_writes, 2u);
  EXPECT_EQ(c.ls_writes, 0u);
}

TEST(LsOracle, MigratoryClassification) {
  LoadStoreOracle oracle(true);
  // P0 and P1 take turns doing load-store on the same block.
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  oracle.on_global_read(1, 0x100);
  oracle.on_global_write(1, 0x100, false, StreamTag::kApp);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.ls_writes, 3u);
  EXPECT_EQ(c.migratory_writes, 2u);  // Second and third sequences migrate.
}

TEST(LsOracle, RepeatLoadStoreBySameProcessorIsNotMigratory) {
  LoadStoreOracle oracle(true);
  for (int i = 0; i < 3; ++i) {
    oracle.on_global_read(2, 0x100);
    oracle.on_global_write(2, 0x100, false, StreamTag::kApp);
  }
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.ls_writes, 3u);
  EXPECT_EQ(c.migratory_writes, 0u);
}

TEST(LsOracle, EliminatedWritesTracked) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(0, 0x100, true, StreamTag::kApp);
  oracle.on_global_read(1, 0x100);
  oracle.on_global_write(1, 0x100, true, StreamTag::kApp);
  const LsOracleCounters c = oracle.total();
  EXPECT_EQ(c.eliminated, 2u);
  EXPECT_EQ(c.eliminated_ls, 2u);
  EXPECT_EQ(c.eliminated_migratory, 1u);
  EXPECT_DOUBLE_EQ(c.ls_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(c.migratory_coverage(), 1.0);
}

TEST(LsOracle, PerStreamTagSeparation) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  oracle.on_global_read(0, 0x200);
  oracle.on_global_write(0, 0x200, false, StreamTag::kLibrary);
  oracle.on_global_write(0, 0x300, false, StreamTag::kOs);
  EXPECT_EQ(oracle.counters(StreamTag::kApp).global_writes, 1u);
  EXPECT_EQ(oracle.counters(StreamTag::kLibrary).global_writes, 1u);
  EXPECT_EQ(oracle.counters(StreamTag::kOs).global_writes, 1u);
  EXPECT_EQ(oracle.counters(StreamTag::kOs).ls_writes, 0u);
  EXPECT_EQ(oracle.total().global_writes, 3u);
}

TEST(LsOracle, FractionsComputed) {
  LsOracleCounters c;
  c.global_writes = 100;
  c.ls_writes = 42;
  c.migratory_writes = 20;
  c.eliminated_ls = 24;
  c.eliminated_migratory = 10;
  EXPECT_DOUBLE_EQ(c.ls_fraction(), 0.42);
  EXPECT_NEAR(c.migratory_fraction(), 0.476, 0.001);
  EXPECT_NEAR(c.ls_coverage(), 0.571, 0.001);
  EXPECT_DOUBLE_EQ(c.migratory_coverage(), 0.5);
}

TEST(LsOracle, ZeroDenominatorsAreSafe) {
  const LsOracleCounters c;
  EXPECT_DOUBLE_EQ(c.ls_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(c.migratory_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(c.ls_coverage(), 0.0);
  EXPECT_DOUBLE_EQ(c.migratory_coverage(), 0.0);
}

TEST(LsOracle, IndependentBlocks) {
  LoadStoreOracle oracle(true);
  oracle.on_global_read(0, 0x100);
  oracle.on_global_read(1, 0x200);
  oracle.on_global_write(0, 0x100, false, StreamTag::kApp);
  oracle.on_global_write(1, 0x200, false, StreamTag::kApp);
  EXPECT_EQ(oracle.total().ls_writes, 2u);
}

TEST(LsOracle, GrowsPastInitialTableAgainstReferenceModel) {
  // ~10k distinct blocks grow the oracle's block table well past its
  // 256-slot start; every counter must match a map-based model of the
  // same rules after each growth.
  LoadStoreOracle oracle(true);
  struct Model {
    NodeId pending_reader = kInvalidNode;
    NodeId last_ls_owner = kInvalidNode;
  };
  std::unordered_map<Addr, Model> blocks;
  std::array<LsOracleCounters, kNumStreamTags> expected{};
  std::uint64_t lcg = 7;
  for (int op = 0; op < 60000; ++op) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const Addr block = ((lcg >> 33) % 10000) * 32;
    const auto node = static_cast<NodeId>((lcg >> 20) % 4);
    Model& m = blocks[block];
    if ((lcg >> 24) % 2 == 0) {
      oracle.on_global_read(node, block);
      m.pending_reader = node;
      continue;
    }
    const bool eliminated = (lcg >> 26) % 3 == 0;
    const auto tag = static_cast<StreamTag>((lcg >> 28) % kNumStreamTags);
    oracle.on_global_write(node, block, eliminated, tag);
    const bool is_ls = m.pending_reader == node;
    const bool is_migratory =
        is_ls && m.last_ls_owner != kInvalidNode && m.last_ls_owner != node;
    LsOracleCounters& c = expected[static_cast<std::size_t>(tag)];
    c.global_writes += 1;
    c.ls_writes += is_ls ? 1 : 0;
    c.migratory_writes += is_migratory ? 1 : 0;
    c.eliminated += eliminated ? 1 : 0;
    c.eliminated_ls += eliminated && is_ls ? 1 : 0;
    c.eliminated_migratory += eliminated && is_migratory ? 1 : 0;
    if (is_ls) m.last_ls_owner = node;
    m.pending_reader = kInvalidNode;
  }
  ASSERT_GT(blocks.size(), 9000u);
  LsOracleCounters expected_total;
  for (int t = 0; t < kNumStreamTags; ++t) {
    EXPECT_EQ(oracle.counters(static_cast<StreamTag>(t)), expected[t]);
    expected_total += expected[t];
  }
  EXPECT_EQ(oracle.total(), expected_total);
  EXPECT_GT(expected_total.migratory_writes, 0u);
  EXPECT_GT(expected_total.eliminated_migratory, 0u);
}

}  // namespace
}  // namespace lssim

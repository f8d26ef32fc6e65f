#include "sweep/matrix.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/protocol_registry.hpp"

namespace lssim {
namespace {

SweepAxes small_axes() {
  SweepAxes axes;
  axes.workloads = {"pingpong"};
  axes.protocols = {ProtocolKind::kBaseline, ProtocolKind::kLs};
  axes.directories = {DirectoryKind::kFullMap};
  axes.interconnects = {InterconnectKind::kNetwork};
  axes.node_counts = {2, 4};
  axes.l1_sizes = {axes.base.l1.size_bytes};
  axes.l2_sizes = {axes.base.l2.size_bytes};
  axes.block_sizes = {axes.base.l1.block_bytes};
  return axes;
}

TEST(SweepMatrix, ExpandsCrossProductInDocumentedOrder) {
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(small_axes(), &matrix, &error)) << error;
  ASSERT_EQ(matrix.units.size(), 4u);
  EXPECT_EQ(matrix.combinations, 4u);
  // Protocol-major over node counts (workload/protocol/.../nodes order).
  EXPECT_EQ(matrix.units[0].label,
            "pingpong/Baseline/full-map/network/n2/l1=4096/l2=65536/b16");
  EXPECT_EQ(matrix.units[1].label,
            "pingpong/Baseline/full-map/network/n4/l1=4096/l2=65536/b16");
  EXPECT_EQ(matrix.units[2].label,
            "pingpong/LS/full-map/network/n2/l1=4096/l2=65536/b16");
  EXPECT_EQ(matrix.units[3].label,
            "pingpong/LS/full-map/network/n4/l1=4096/l2=65536/b16");
  for (const SweepUnit& unit : matrix.units) {
    EXPECT_TRUE(unit.machine.validate().empty());
    EXPECT_NE(unit.config_hash, 0u);
  }
}

TEST(SweepMatrix, GenerationIsDeterministic) {
  SweepMatrix a, b;
  std::string error;
  ASSERT_TRUE(generate_sweep(small_axes(), &a, &error)) << error;
  ASSERT_TRUE(generate_sweep(small_axes(), &b, &error)) << error;
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    EXPECT_EQ(a.units[i].label, b.units[i].label);
    EXPECT_EQ(a.units[i].config_hash, b.units[i].config_hash);
  }
}

TEST(SweepMatrix, HashesAreUniqueAcrossCells) {
  SweepAxes axes = small_axes();
  axes.protocols = all_protocol_kinds();
  axes.directories = kDirectoryNames.all();
  axes.interconnects = kInterconnectNames.all();
  axes.node_counts = {2, 4, 8};
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  std::set<std::uint64_t> hashes;
  for (const SweepUnit& unit : matrix.units) {
    EXPECT_TRUE(hashes.insert(unit.config_hash).second)
        << "duplicate hash for " << unit.label;
  }
}

TEST(SweepMatrix, PrunesInvalidMachinesInsteadOfErroring) {
  SweepAxes axes = small_axes();
  // full-map past 64 nodes is invalid; 96 must be pruned, 4 kept.
  axes.node_counts = {4, 96};
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  EXPECT_EQ(matrix.combinations, 4u);
  EXPECT_EQ(matrix.units.size(), 2u);
  EXPECT_EQ(matrix.pruned_invalid, 2u);
  for (const SweepUnit& unit : matrix.units) {
    EXPECT_EQ(unit.machine.num_nodes, 4);
  }
}

TEST(SweepMatrix, IncludeExcludeFiltersMatchLabels) {
  SweepAxes axes = small_axes();
  axes.include = {"/LS/"};
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  ASSERT_EQ(matrix.units.size(), 2u);
  EXPECT_EQ(matrix.filtered_out, 2u);

  axes.include.clear();
  axes.exclude = {"/n4/"};
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  ASSERT_EQ(matrix.units.size(), 2u);
  for (const SweepUnit& unit : matrix.units) {
    EXPECT_EQ(unit.machine.num_nodes, 2);
  }
}

TEST(SweepMatrix, RejectsEmptyAxesAndUnknownWorkloads) {
  SweepMatrix matrix;
  std::string error;
  SweepAxes axes = small_axes();
  axes.protocols.clear();
  EXPECT_FALSE(generate_sweep(axes, &matrix, &error));
  EXPECT_FALSE(error.empty());

  axes = small_axes();
  axes.workloads = {"no-such-workload"};
  EXPECT_FALSE(generate_sweep(axes, &matrix, &error));
  EXPECT_NE(error.find("no-such-workload"), std::string::npos);
}

TEST(SweepMatrix, ParamsAndSeedChangeTheHash) {
  SweepAxes plain = small_axes();
  SweepAxes with_params = small_axes();
  with_params.params.emplace_back("rounds", "50");
  SweepAxes with_seed = small_axes();
  with_seed.seed = 7;
  SweepMatrix a, b, c;
  std::string error;
  ASSERT_TRUE(generate_sweep(plain, &a, &error)) << error;
  ASSERT_TRUE(generate_sweep(with_params, &b, &error)) << error;
  ASSERT_TRUE(generate_sweep(with_seed, &c, &error)) << error;
  EXPECT_NE(a.units[0].config_hash, b.units[0].config_hash);
  EXPECT_NE(a.units[0].config_hash, c.units[0].config_hash);
  EXPECT_NE(b.units[0].config_hash, c.units[0].config_hash);
}

// The acceptance floor from ROADMAP item 4: a realistic filter
// expression must expand to at least 500 valid configurations.
TEST(SweepMatrix, RealisticAxesYieldAtLeast500ValidConfigs) {
  SweepAxes axes = small_axes();
  axes.workloads = {"pingpong", "private", "readmostly"};
  axes.protocols = all_protocol_kinds();
  axes.directories = kDirectoryNames.all();
  axes.interconnects = kInterconnectNames.all();
  axes.node_counts = {2, 4, 8, 16};
  axes.exclude = {"/Dragon/"};  // A filter expression, as the floor asks.
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(generate_sweep(axes, &matrix, &error)) << error;
  EXPECT_GE(matrix.units.size(), 500u);
  for (const SweepUnit& unit : matrix.units) {
    EXPECT_TRUE(unit.machine.validate().empty()) << unit.label;
  }
}

}  // namespace
}  // namespace lssim

#include "sim/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lssim {
namespace {

TEST(Config, ScientificDefaultMatchesPaper) {
  const MachineConfig cfg = MachineConfig::scientific_default();
  EXPECT_EQ(cfg.num_nodes, 4);
  EXPECT_EQ(cfg.l1.size_bytes, 4u * 1024);
  EXPECT_EQ(cfg.l1.assoc, 1u);
  EXPECT_EQ(cfg.l2.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.l2.assoc, 1u);
  EXPECT_EQ(cfg.l1.block_bytes, 16u);
  EXPECT_EQ(cfg.l2.block_bytes, 16u);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(Config, OltpDefaultMatchesPaper) {
  const MachineConfig cfg = MachineConfig::oltp_default(ProtocolKind::kLs);
  EXPECT_EQ(cfg.l1.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.l1.assoc, 2u);
  EXPECT_EQ(cfg.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(cfg.l1.block_bytes, 32u);
  EXPECT_EQ(cfg.protocol.kind, ProtocolKind::kLs);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(Config, LatencyDefaultsMatchTable1) {
  const LatencyConfig lat;
  EXPECT_EQ(lat.l1_access, 1u);
  EXPECT_EQ(lat.l2_access, 10u);
  EXPECT_EQ(lat.controller, 20u);
  EXPECT_EQ(lat.memory, 40u);
  EXPECT_EQ(lat.hop, 40u);
}

TEST(Config, RejectsNonPowerOfTwoBlock) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.l1.block_bytes = 24;
  cfg.l2.block_bytes = 24;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, RejectsMismatchedBlockSizes) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.l1.block_bytes = 16;
  cfg.l2.block_bytes = 32;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, RejectsL1LargerThanL2) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.l1.size_bytes = 128 * 1024;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, RejectsTooManyNodes) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.num_nodes = 65;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, RejectsOversizedBlocks) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.l1.block_bytes = 512;
  cfg.l2.block_bytes = 512;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, RejectsPagesNarrowerThanAnAccess) {
  // An 8-byte store to a 4-byte page once wrote past its buffer.
  MachineConfig cfg = MachineConfig::scientific_default();
  for (const std::uint32_t bytes : {0u, 1u, 2u, 4u, 12u}) {
    cfg.page_bytes = bytes;
    EXPECT_NE(cfg.validate().find("page_bytes"), std::string::npos) << bytes;
  }
  cfg.page_bytes = 8;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, RejectsZeroHysteresis) {
  MachineConfig cfg = MachineConfig::scientific_default();
  cfg.protocol.tag_hysteresis = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(Config, BlockSizeSweepValidates) {
  for (std::uint32_t block : {16u, 32u, 64u, 128u, 256u}) {
    MachineConfig cfg = MachineConfig::oltp_default();
    cfg.l1.block_bytes = block;
    cfg.l2.block_bytes = block;
    EXPECT_TRUE(cfg.validate().empty()) << "block=" << block;
  }
}

TEST(Config, NumSetsComputed) {
  const CacheConfig cache{64 * 1024, 2, 32};
  EXPECT_EQ(cache.num_sets(), 1024u);
}

TEST(Config, ProtocolKindNames) {
  EXPECT_STREQ(to_string(ProtocolKind::kBaseline), "Baseline");
  EXPECT_STREQ(to_string(ProtocolKind::kAd), "AD");
  EXPECT_STREQ(to_string(ProtocolKind::kLs), "LS");
  EXPECT_STREQ(to_string(ProtocolKind::kIls), "ILS");
  EXPECT_STREQ(to_string(ProtocolKind::kLsAd), "LS+AD");
}

TEST(Config, ProtocolNameRoundTripsExactly) {
  // The printer and the parser share one table: every kind's canonical
  // name must parse back to the same kind.
  for (const NamedKind<ProtocolKind>& row : kProtocolNames.rows) {
    ProtocolKind kind;
    ASSERT_TRUE(kProtocolNames.parse(to_string(row.kind), &kind)) << row.name;
    EXPECT_EQ(kind, row.kind);
  }
}

TEST(Config, ProtocolFromNameAcceptsAliasesCaseInsensitively) {
  ProtocolKind kind;
  ASSERT_TRUE(kProtocolNames.parse("BASELINE", &kind));
  EXPECT_EQ(kind, ProtocolKind::kBaseline);
  ASSERT_TRUE(kProtocolNames.parse("wi", &kind));
  EXPECT_EQ(kind, ProtocolKind::kBaseline);
  ASSERT_TRUE(kProtocolNames.parse("migratory", &kind));
  EXPECT_EQ(kind, ProtocolKind::kAd);
  ASSERT_TRUE(kProtocolNames.parse("ls-ad", &kind));
  EXPECT_EQ(kind, ProtocolKind::kLsAd);
  ASSERT_TRUE(kProtocolNames.parse("hybrid", &kind));
  EXPECT_EQ(kind, ProtocolKind::kLsAd);
  EXPECT_FALSE(kProtocolNames.parse("", &kind));
  EXPECT_FALSE(kProtocolNames.parse("mesif", &kind));
}

TEST(NameTable, EveryEnumParsesItsNamesAndAliases) {
  Topology topology;
  ASSERT_TRUE(kTopologyNames.parse("XBAR", &topology));
  EXPECT_EQ(topology, Topology::kCrossbar);
  ASSERT_TRUE(kTopologyNames.parse("mesh", &topology));
  EXPECT_EQ(topology, Topology::kMesh2D);
  EXPECT_FALSE(kTopologyNames.parse("torus", &topology));
  ConsistencyModel model;
  ASSERT_TRUE(kConsistencyNames.parse("pc", &model));
  EXPECT_EQ(model, ConsistencyModel::kPc);
  BusArbitration arbitration;
  ASSERT_TRUE(kBusArbitrationNames.parse("RR", &arbitration));
  EXPECT_EQ(arbitration, BusArbitration::kRoundRobin);
  InterconnectKind net;
  ASSERT_TRUE(kInterconnectNames.parse("snoop", &net));
  EXPECT_EQ(net, InterconnectKind::kBus);
  EXPECT_STREQ(to_string(static_cast<Topology>(7)), "?");
}

TEST(NameTable, ParseListDropsDuplicatesAndNamesTheBadElement) {
  std::vector<DirectoryKind> kinds;
  std::string error;
  ASSERT_TRUE(kDirectoryNames.parse_list("sparse,FULL,full-map,sparse",
                                         "--directories", &kinds, &error));
  EXPECT_EQ(kinds, (std::vector<DirectoryKind>{DirectoryKind::kSparse,
                                               DirectoryKind::kFullMap}));
  EXPECT_FALSE(kDirectoryNames.parse_list("sparse,,coarse", "--directories",
                                          &kinds, &error));
  EXPECT_EQ(kinds.size(), 2u) << "failure leaves the output untouched";
  EXPECT_EQ(error,
            "unknown directory organisation '' in --directories "
            "sparse,,coarse (registered: full-map, limited-ptr, coarse, "
            "sparse)");
}

}  // namespace
}  // namespace lssim

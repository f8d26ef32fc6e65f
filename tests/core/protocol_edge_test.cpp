// Protocol edge cases: degenerate machines, node-role coincidences,
// mixed access sizes, long tag/de-tag churn, traffic-class accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../coherence_check.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

TEST(ProtocolEdge, SingleNodeMachineNeverSendsMessages) {
  MachineConfig cfg;
  cfg.num_nodes = 1;
  cfg.l1 = CacheConfig{64, 1, 16};
  cfg.l2 = CacheConfig{256, 1, 16};
  cfg.protocol.kind = ProtocolKind::kLs;
  ProtocolFixture f(cfg);
  for (int i = 0; i < 64; ++i) {
    (void)f.read(0, static_cast<Addr>(i) * 16);
    (void)f.write(0, static_cast<Addr>(i) * 16, i);
  }
  EXPECT_EQ(f.stats().messages_total(), 0u);  // All transactions local.
  EXPECT_GT(f.stats().global_read_misses, 0u);
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
}

TEST(ProtocolEdge, HomeIsOwnerForwardingDegenerates) {
  // Owner == home: the "4-hop" read-on-dirty loses its forward hops.
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kBaseline));
  const Addr a = f.on_home(2);
  (void)f.write(2, a, 9);               // Home node 2 owns its own block.
  const AccessResult r = f.read(1, a);  // Requester remote.
  EXPECT_EQ(r.value, 9u);
  EXPECT_LT(r.latency, 420u);  // Cheaper than the full 4-hop case.
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
}

TEST(ProtocolEdge, RequesterIsHomeWithRemoteOwner) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kBaseline));
  const Addr a = f.on_home(1);
  (void)f.write(0, a, 7);
  const AccessResult r = f.read(1, a);  // Requester == home.
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(f.state_of(0, a), CacheState::kShared);
  EXPECT_EQ(f.state_of(1, a), CacheState::kShared);
}

TEST(ProtocolEdge, MixedAccessSizesWithinOneBlock) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(0);
  (void)f.write(0, a, 0x1122334455667788ull, 8);
  EXPECT_EQ(f.read(1, a, 1).value, 0x88u);
  EXPECT_EQ(f.read(1, a + 2, 2).value, 0x5566u);
  EXPECT_EQ(f.read(1, a + 4, 4).value, 0x11223344u);
  (void)f.write(2, a + 6, 0xBEEF, 2);
  EXPECT_EQ(f.read(3, a, 8).value, 0xBEEF334455667788ull);
}

/// The message of the logic_error `access` throws, or "" when it
/// completes.
std::string access_error(ProtocolFixture& f, NodeId node, Addr addr,
                         unsigned size, bool write) {
  try {
    (void)(write ? f.write(node, addr, 1, size) : f.read(node, addr, size));
  } catch (const std::logic_error& ex) {
    return ex.what();
  }
  return "";
}

TEST(ProtocolEdge, MisalignedAccessIsRejectedNamingNodeAddressAndSize) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(1);
  EXPECT_EQ(access_error(f, 2, a + 4, 8, /*write=*/true),
            "MemorySystem::access: node 2 accesses 8 bytes at 0x1004; "
            "accesses must be 1, 2, 4 or 8 bytes at a multiple of their "
            "size");
  EXPECT_NE(access_error(f, 0, a + 2, 4, /*write=*/false), "");
  EXPECT_NE(access_error(f, 0, a + 1, 2, /*write=*/false), "");
  // Sizes the memory cannot hold, aligned or not.
  EXPECT_NE(access_error(f, 0, a, 3, /*write=*/false), "");
  EXPECT_NE(access_error(f, 0, a, 0, /*write=*/true), "");
  EXPECT_NE(access_error(f, 0, a, 16, /*write=*/true), "");
  // Nothing was counted or stored; aligned accesses still work.
  EXPECT_EQ(f.stats().accesses, 0u);
  EXPECT_EQ(access_error(f, 0, a + 6, 2, /*write=*/true), "");
  EXPECT_EQ(f.read(3, a + 6, 2).value, 1u);
}

TEST(ProtocolEdge, TagDetagChurnStaysConsistent) {
  // Alternate load-store and read-shared phases on one block many times;
  // the directory and caches must stay coherent throughout.
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(0);
  for (int round = 0; round < 25; ++round) {
    const NodeId writer = static_cast<NodeId>(round % 4);
    (void)f.read(writer, a);
    (void)f.write(writer, a, round);  // Tags (LR == writer).
    // Read-shared phase: everyone reads; the first read may migrate the
    // block exclusively, the second forces the NotLS de-tag.
    for (NodeId n = 0; n < 4; ++n) {
      EXPECT_EQ(f.read(n, a).value, static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(coherence_violations(f.ms()), kNoViolations) << "round " << round;
  }
  EXPECT_GT(f.stats().blocks_detagged, 5u);
}

TEST(ProtocolEdge, TrafficClassesCoverAllMessages) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  for (int i = 0; i < 200; ++i) {
    const Addr a = f.on_home(static_cast<NodeId>(i % 4),
                             static_cast<Addr>((i * 48) % 1024));
    if (i % 3 == 0) {
      (void)f.write(static_cast<NodeId>((i + 1) % 4), a, i);
    } else {
      (void)f.read(static_cast<NodeId>((i + 2) % 4), a);
    }
  }
  const Stats& stats = f.stats();
  const std::uint64_t by_class = stats.messages_of_class(MsgClass::kRead) +
                                 stats.messages_of_class(MsgClass::kWrite) +
                                 stats.messages_of_class(MsgClass::kOther);
  EXPECT_EQ(by_class, stats.messages_total());
  EXPECT_GT(stats.messages_of_class(MsgClass::kRead), 0u);
  EXPECT_GT(stats.messages_of_class(MsgClass::kWrite), 0u);
  EXPECT_GT(stats.messages_of_class(MsgClass::kOther), 0u);
}

TEST(ProtocolEdge, SixtyFourNodeMachine) {
  MachineConfig cfg;
  cfg.num_nodes = 64;
  cfg.l1 = CacheConfig{64, 1, 16};
  cfg.l2 = CacheConfig{256, 1, 16};
  cfg.protocol.kind = ProtocolKind::kLs;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  for (NodeId n = 0; n < 64; ++n) {
    (void)f.read(n, a);
  }
  EXPECT_EQ(f.dir(a).sharer_count(), 64);
  (void)f.write(63, a, 1);
  EXPECT_EQ(f.stats().invalidations_sent, 63u);
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
}

TEST(ProtocolEdge, WriteUpgradeRaceWithTaggedBlockViaThirdParty) {
  // Tagged block migrates exclusively; a third party's upgrade-from-
  // shared cannot exist (no shared copies), so its write is a miss that
  // transfers ownership.
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a, 1);
  (void)f.read(2, a);  // LStemp at 2.
  (void)f.write(3, a, 3);
  EXPECT_EQ(f.state_of(2, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(3, a), CacheState::kModified);
  EXPECT_EQ(f.read(0, a).value, 3u);
}

TEST(ProtocolEdge, EliminatedWritePromotesInBothCacheLevels) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a, 1);
  (void)f.read(2, a);  // LStemp in L1+L2 of node 2.
  (void)f.write(2, a, 2);
  EXPECT_EQ(f.ms().cache(2).l1().find(f.block_of(a))->state,
            CacheState::kModified);
  EXPECT_EQ(f.ms().cache(2).l2().find(f.block_of(a))->state,
            CacheState::kModified);
}

TEST(ProtocolEdge, RmwOnTaggedBlockCountsAsEliminated) {
  ProtocolFixture f(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a, 5);
  (void)f.read(2, a);  // LStemp at 2.
  const AccessResult r = f.fetch_add(2, a, 10);
  EXPECT_EQ(r.value, 5u);
  EXPECT_EQ(r.latency, 1u);
  EXPECT_EQ(f.stats().eliminated_acquisitions, 1u);
}

// An imprecise believed set can cover an Owned block's owner: here the
// owner shares its two-node coarse region with the one sharer. A write
// miss reaches the owner once, as the supplier, and never also
// invalidates or updates it as a sharer.
TEST(ProtocolEdge, WriteMissReachesAnOwnedOwnerInASharersRegionOnce) {
  for (const ProtocolKind kind :
       {ProtocolKind::kMoesi, ProtocolKind::kDragon}) {
    SCOPED_TRACE(to_string(kind));
    MachineConfig cfg = ProtocolFixture::tiny(kind);
    cfg.directory_scheme = DirectoryKind::kCoarseVector;
    cfg.directory_region = 2;  // Nodes 0 and 1 share one presence bit.
    ProtocolFixture f(cfg);
    const Addr a = f.on_home(3);
    (void)f.write(0, a, 1);
    (void)f.read(1, a);  // Node 0 keeps the dirty block: Owned.
    ASSERT_EQ(f.dir(a).state, DirState::kOwned);
    const Stats before = f.stats();
    (void)f.write(2, a, 2);
    // ReadExReq, WriteFwd to the owner, one invalidate (or update) and
    // its ack for sharer 1, OwnerXferAck and the data reply.
    EXPECT_EQ(f.stats().messages_total() - before.messages_total(), 6u);
    if (kind == ProtocolKind::kMoesi) {
      EXPECT_EQ(f.stats().invalidations_sent - before.invalidations_sent, 1u);
      EXPECT_EQ(f.stats().single_invalidations - before.single_invalidations,
                1u);
      EXPECT_EQ(f.state_of(0, a), CacheState::kInvalid);
      EXPECT_EQ(f.state_of(1, a), CacheState::kInvalid);
      EXPECT_EQ(f.state_of(2, a), CacheState::kModified);
    } else {
      // Sharer 1 updated by fan-out, owner 0 by its own supply.
      EXPECT_EQ(f.stats().updates_sent - before.updates_sent, 2u);
      EXPECT_EQ(f.state_of(0, a), CacheState::kShared);
      EXPECT_EQ(f.state_of(1, a), CacheState::kShared);
      EXPECT_EQ(f.state_of(2, a), CacheState::kOwned);
    }
    EXPECT_EQ(f.dir(a).owner, 2u);
    EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
  }
}

// The same coverage past 64 nodes, where sparse presence bits span two
// nodes: evicting the Owned entry purges the sharer and writes the
// owner's copy back, each once.
TEST(ProtocolEdge, SparseEvictionPurgesAnOwnedOwnerOnce) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kMoesi);
  cfg.num_nodes = 128;
  cfg.directory_scheme = DirectoryKind::kSparse;
  cfg.directory_entries = 1;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(3);
  (void)f.write(0, a, 1);
  (void)f.read(1, a);  // Owned by node 0; nodes 0 and 1 share a bit.
  ASSERT_EQ(f.dir(a).state, DirState::kOwned);
  const Stats before = f.stats();
  (void)f.read(2, f.on_home(2));  // A local miss evicts a's entry.
  EXPECT_EQ(f.stats().dir_entry_evictions, 1u);
  // Inval + InvalAck for sharer 1, Inval + WritebackData for owner 0.
  EXPECT_EQ(f.stats().messages_total() - before.messages_total(), 4u);
  EXPECT_EQ(f.state_of(0, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
}

}  // namespace
}  // namespace lssim

// Ring and 2D-mesh topologies (extension; the paper's machine is the
// crossbar default).
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "core/protocol.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"

namespace lssim {
namespace {

Network make(int nodes, Topology topo, Stats& stats) {
  return Network(nodes, LatencyConfig{}, stats, topo);
}

TEST(Topology, CrossbarIsAlwaysOneHop) {
  Stats stats(8);
  Network net = make(8, Topology::kCrossbar, stats);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      EXPECT_EQ(net.hop_count(s, d), s == d ? 0 : 1);
    }
  }
}

TEST(Topology, RingHopCountIsShorterWayRound) {
  Stats stats(8);
  Network net = make(8, Topology::kRing, stats);
  EXPECT_EQ(net.hop_count(0, 1), 1);
  EXPECT_EQ(net.hop_count(0, 4), 4);  // Exactly opposite.
  EXPECT_EQ(net.hop_count(0, 5), 3);  // Backward is shorter.
  EXPECT_EQ(net.hop_count(7, 0), 1);  // Wraps.
  EXPECT_EQ(net.hop_count(2, 2), 0);
}

TEST(Topology, RingLatencyScalesWithHops) {
  Stats stats(8);
  Network net = make(8, Topology::kRing, stats);
  const Cycles one = net.send(0, 1, MsgType::kReadReq, 0);
  // Well after the first message so the shared 0->1 link is idle again.
  const Cycles four = net.send(0, 4, MsgType::kReadReq, 1000);
  EXPECT_EQ(one, 40u);
  EXPECT_EQ(four, 1000u + 4 * 40u);
}

TEST(Topology, MeshHopCountIsManhattan) {
  Stats stats(16);
  Network net = make(16, Topology::kMesh2D, stats);  // 4x4 grid.
  EXPECT_EQ(net.hop_count(0, 3), 3);    // Same row.
  EXPECT_EQ(net.hop_count(0, 12), 3);   // Same column.
  EXPECT_EQ(net.hop_count(0, 15), 6);   // Corner to corner.
  EXPECT_EQ(net.hop_count(5, 5), 0);
}

TEST(Topology, MeshWithNonSquareCount) {
  Stats stats(6);
  Network net = make(6, Topology::kMesh2D, stats);  // 3x2 grid.
  EXPECT_EQ(net.hop_count(0, 5), 3);  // (0,0) -> (2,1).
  const Cycles t = net.send(0, 5, MsgType::kReadReq, 0);
  EXPECT_EQ(t, 3 * 40u);
}

TEST(Topology, RingLinksSerialiseSharedSegments) {
  Stats stats(4);
  LatencyConfig lat;
  lat.link_occupancy = 8;
  Network net(4, lat, stats, Topology::kRing);
  // 0->2 (via 1) and 0->1 share the 0->1 physical link.
  (void)net.send(0, 2, MsgType::kReadReq, 0);
  const Cycles t = net.send(0, 1, MsgType::kReadReq, 0);
  EXPECT_EQ(t, 48u);  // Queued behind the first message on link 0->1.
  EXPECT_EQ(net.total_queueing(), 8u);
}

TEST(Topology, CrossbarLinksIndependent) {
  Stats stats(4);
  Network net = make(4, Topology::kCrossbar, stats);
  (void)net.send(0, 2, MsgType::kReadReq, 0);
  const Cycles t = net.send(0, 1, MsgType::kReadReq, 0);
  EXPECT_EQ(t, 40u);  // Different direct links: no queueing.
}

TEST(Topology, HopsCountedInStats) {
  Stats stats(8);
  Network net = make(8, Topology::kRing, stats);
  (void)net.send(0, 3, MsgType::kReadReq, 0);
  EXPECT_EQ(stats.network_hops, 3u);
}

TEST(Topology, EndToEndProtocolRunsOnEveryTopology) {
  for (Topology topo :
       {Topology::kCrossbar, Topology::kRing, Topology::kMesh2D}) {
    MachineConfig cfg;
    cfg.num_nodes = 4;
    cfg.l1 = CacheConfig{256, 1, 16};
    cfg.l2 = CacheConfig{1024, 1, 16};
    cfg.topology = topo;
    cfg.protocol.kind = ProtocolKind::kLs;
    AddressSpace space(cfg.num_nodes, cfg.page_bytes);
    Stats stats(cfg.num_nodes);
    MemorySystem ms(cfg, space, stats);
    AccessRequest req;
    req.size = 8;
    for (int i = 0; i < 200; ++i) {
      req.addr = static_cast<Addr>((i * 2654435761u) % 8192) & ~Addr{7};
      req.op = (i % 3 == 0) ? MemOpKind::kWrite : MemOpKind::kRead;
      (void)ms.access(static_cast<NodeId>(i % 4), req, 10000ull * i);
    }
    EXPECT_EQ(coherence_violations(ms), kNoViolations)
        << to_string(topo);
  }
}

}  // namespace
}  // namespace lssim

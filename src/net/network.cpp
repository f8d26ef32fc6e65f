#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lssim {

Network::Network(int num_nodes, const LatencyConfig& latency, Stats& stats,
                 Topology topology, MetricsRegistry* metrics)
    : num_nodes_(num_nodes),
      topology_(topology),
      hop_(latency.hop),
      occupancy_(latency.link_occupancy),
      stats_(stats),
      metrics_(metrics) {
  assert(num_nodes >= 1);
  if (metrics_ != nullptr) {
    messages_ = metrics_->counter("net.messages");
    hops_ = metrics_->counter("net.hops");
    queue_delay_ = metrics_->histogram("net.queue_delay");
  }
  switch (topology_) {
    case Topology::kCrossbar:
    case Topology::kRing:
      routers_ = num_nodes_;
      break;
    case Topology::kMesh2D: {
      mesh_w_ = static_cast<int>(
          std::ceil(std::sqrt(static_cast<double>(num_nodes_))));
      const int mesh_h = (num_nodes_ + mesh_w_ - 1) / mesh_w_;
      routers_ = mesh_w_ * mesh_h;  // Routers exist even on grid holes.
      break;
    }
  }
  link_free_.assign(static_cast<std::size_t>(routers_) *
                        static_cast<std::size_t>(routers_),
                    0);
}

int Network::next_router(int at, int dst) const noexcept {
  switch (topology_) {
    case Topology::kCrossbar:
      return dst;
    case Topology::kRing: {
      const int forward = (dst - at + num_nodes_) % num_nodes_;
      const int backward = (at - dst + num_nodes_) % num_nodes_;
      return forward <= backward ? (at + 1) % num_nodes_
                                 : (at + num_nodes_ - 1) % num_nodes_;
    }
    case Topology::kMesh2D: {
      // Dimension-order (X then Y) routing.
      const int ax = at % mesh_w_;
      const int ay = at / mesh_w_;
      const int dx = dst % mesh_w_;
      const int dy = dst / mesh_w_;
      if (ax != dx) {
        return ay * mesh_w_ + (ax < dx ? ax + 1 : ax - 1);
      }
      return (ay < dy ? ay + 1 : ay - 1) * mesh_w_ + ax;
    }
  }
  return dst;
}

int Network::hop_count(NodeId src, NodeId dst) const noexcept {
  if (src == dst) return 0;
  switch (topology_) {
    case Topology::kCrossbar:
      return 1;
    case Topology::kRing: {
      const int forward = (dst - src + num_nodes_) % num_nodes_;
      const int backward = (src - dst + num_nodes_) % num_nodes_;
      return std::min(forward, backward);
    }
    case Topology::kMesh2D: {
      const int dx = std::abs(src % mesh_w_ - dst % mesh_w_);
      const int dy = std::abs(src / mesh_w_ - dst / mesh_w_);
      return dx + dy;
    }
  }
  return 1;
}

Cycles Network::send(NodeId src, NodeId dst, MsgType type, Cycles now) {
  if (src == dst) {
    // A self-send never occupies a link (the routing loop below no-ops),
    // but it silently inflates the message count — exactly the
    // statistic the paper's figures are built from. Checked
    // in all build types: an assert would let release builds publish
    // corrupted message counts.
    throw std::logic_error(
        "Network::send: src == dst (node " + std::to_string(int{src}) +
        "); node-internal transfers are not network messages");
  }
  stats_.messages_by_type[static_cast<std::size_t>(type)] += 1;
  int at = src;
  Cycles t = now;
  Cycles queued = 0;
  std::uint64_t hops = 0;
  while (at != dst) {
    const int next = next_router(at, dst);
    Cycles& free_at = link_free(at, next);
    const Cycles depart = std::max(t, free_at);
    queued += depart - t;
    free_at = depart + occupancy_;
    t = depart + hop_;
    stats_.network_hops += 1;
    hops += 1;
    at = next;
  }
  total_queueing_ += queued;
  if (metrics_ != nullptr) {
    metrics_->add(messages_);
    metrics_->add(hops_, hops);
    metrics_->observe(queue_delay_, queued);
  }
  return t;
}

}  // namespace lssim

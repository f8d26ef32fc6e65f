#include "net/snoop_bus.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "net/network.hpp"

namespace lssim {

SnoopBus::SnoopBus(int num_nodes, const LatencyConfig& latency, Stats& stats,
                   BusArbitration arbitration, MetricsRegistry* metrics)
    : num_nodes_(num_nodes),
      arbitration_(arbitration),
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
}

Cycles SnoopBus::send(NodeId src, NodeId dst, MsgType type, Cycles now) {
  if (src == dst) {
    // Same contract as Network::send: a self-send is not a bus
    // transaction and would silently inflate the message counts.
    throw std::logic_error(
        "SnoopBus::send: src == dst (node " + std::to_string(int{src}) +
        "); node-internal transfers are not bus transactions");
  }
  stats_.messages_by_type[static_cast<std::size_t>(type)] += 1;
  Cycles depart = std::max(now, bus_free_);
  if (arbitration_ == BusArbitration::kRoundRobin && bus_free_ > now) {
    // The requester contended: the rotating grant walks one position per
    // cycle from the node after the last grantee around to `src`.
    const int distance =
        (int{src} - int{last_grantee_} + num_nodes_) % num_nodes_;
    depart += static_cast<Cycles>(distance);
  }
  const Cycles queued = depart - now;
  bus_free_ = depart + occupancy_;
  last_grantee_ = src;
  total_queueing_ += queued;
  stats_.network_hops += 1;  // One broadcast transfer.
  if (metrics_ != nullptr) {
    metrics_->add(messages_);
    metrics_->add(hops_, 1);
    metrics_->observe(queue_delay_, queued);
  }
  return depart + hop_;
}

std::unique_ptr<Interconnect> make_interconnect(const MachineConfig& config,
                                                Stats& stats,
                                                MetricsRegistry* metrics) {
  switch (config.interconnect) {
    case InterconnectKind::kNetwork:
      return std::make_unique<Network>(config.num_nodes, config.latency,
                                       stats, config.topology, metrics);
    case InterconnectKind::kBus:
      return std::make_unique<SnoopBus>(config.num_nodes, config.latency,
                                        stats, config.bus_arbitration,
                                        metrics);
  }
  throw std::invalid_argument("unknown interconnect kind");
}

}  // namespace lssim

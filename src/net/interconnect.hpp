// Coherence-transport seam.
//
// The transaction engine (core/protocol.cpp) charges every coherence
// message through this interface and never assumes how the message
// travels. Two implementations exist:
//
//   Network  (net/network.hpp)   — the directory machine's point-to-point
//                                  network: messages route hop by hop
//                                  over a crossbar / ring / 2D mesh.
//   SnoopBus (net/snoop_bus.hpp) — a snooping shared bus: every
//                                  transaction is broadcast, so directed
//                                  forward and invalidate legs become
//                                  free snoop hits (snoops() == true lets
//                                  the engine skip them) and all traffic
//                                  serialises through one arbiter.
//
// This mirrors the CoherencePolicy / DirectoryPolicy seams: the engine
// owns the transaction structure, the interconnect owns the transport
// cost model, and make_interconnect() resolves the configured kind.
#pragma once

#include <memory>

#include "net/message.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "stats/stats.hpp"
#include "telemetry/registry.hpp"

namespace lssim {

class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Delivers one message and returns its arrival time. Implementations
  /// must account the message in Stats (messages_by_type, network_hops)
  /// and may model contention by delaying the returned time. Throws
  /// std::logic_error on src == dst — a self-send is never a transport
  /// message and would corrupt the traffic stats.
  virtual Cycles send(NodeId src, NodeId dst, MsgType type, Cycles now) = 0;

  /// Topology distance in hops (0 for src == dst). Latency-model input
  /// only; does not touch stats.
  [[nodiscard]] virtual int hop_count(NodeId src,
                                      NodeId dst) const noexcept = 0;

  /// Total cycles messages spent queued for contended resources.
  [[nodiscard]] virtual Cycles total_queueing() const noexcept = 0;

  [[nodiscard]] virtual int num_nodes() const noexcept = 0;

  /// True when every transaction is observed by all caches (snooping
  /// broadcast). The engine then skips directed forward/invalidate legs:
  /// the request broadcast already reached owner and sharers.
  [[nodiscard]] virtual bool snoops() const noexcept { return false; }
};

/// Creates the transport `config.interconnect` selects, accounting into
/// `stats` (and `metrics` when attached).
[[nodiscard]] std::unique_ptr<Interconnect> make_interconnect(
    const MachineConfig& config, Stats& stats,
    MetricsRegistry* metrics = nullptr);

}  // namespace lssim

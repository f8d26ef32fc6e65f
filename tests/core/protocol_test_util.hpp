// Shared fixture for driving MemorySystem directly (no coroutines):
// protocol unit tests issue accesses synchronously and inspect the
// directory, caches and statistics.
#pragma once

#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "mem/address_space.hpp"
#include "sim/config.hpp"
#include "stats/stats.hpp"

namespace lssim {

class ProtocolFixture {
 public:
  /// `telemetry` (optional) attaches an observability bundle, for tests
  /// inspecting metrics/trace/audit output; it must be constructed from
  /// the same config's `telemetry` member and outlive the fixture.
  explicit ProtocolFixture(MachineConfig config,
                           Telemetry* telemetry = nullptr)
      : cfg_(std::move(config)),
        space_(cfg_.num_nodes, cfg_.page_bytes),
        stats_(cfg_.num_nodes),
        ms_(cfg_, space_, stats_, telemetry) {}

  static MachineConfig tiny(ProtocolKind kind) {
    // Small caches so evictions are easy to force: L1 4 sets, L2 16 sets,
    // 16-byte blocks, 4 nodes.
    MachineConfig cfg;
    cfg.num_nodes = 4;
    cfg.l1 = CacheConfig{64, 1, 16};
    cfg.l2 = CacheConfig{256, 1, 16};
    cfg.protocol.kind = kind;
    return cfg;
  }

  /// An address whose home is `home` (page-granular round-robin) at
  /// byte offset `offset` within that node's first page.
  [[nodiscard]] Addr on_home(NodeId home, Addr offset = 0) const {
    return static_cast<Addr>(home) * cfg_.page_bytes + offset;
  }

  AccessResult read(NodeId n, Addr a, unsigned size = 4) {
    AccessRequest req;
    req.op = MemOpKind::kRead;
    req.addr = a;
    req.size = size;
    return issue(n, req);
  }
  AccessResult write(NodeId n, Addr a, std::uint64_t v = 0,
                     unsigned size = 4) {
    AccessRequest req;
    req.op = MemOpKind::kWrite;
    req.addr = a;
    req.size = size;
    req.wdata = v;
    return issue(n, req);
  }
  AccessResult swap(NodeId n, Addr a, std::uint64_t v, unsigned size = 4) {
    AccessRequest req;
    req.op = MemOpKind::kSwap;
    req.addr = a;
    req.size = size;
    req.wdata = v;
    return issue(n, req);
  }
  AccessResult fetch_add(NodeId n, Addr a, std::uint64_t d,
                         unsigned size = 4) {
    AccessRequest req;
    req.op = MemOpKind::kFetchAdd;
    req.addr = a;
    req.size = size;
    req.wdata = d;
    return issue(n, req);
  }
  AccessResult cas(NodeId n, Addr a, std::uint64_t expected,
                   std::uint64_t desired, unsigned size = 4) {
    AccessRequest req;
    req.op = MemOpKind::kCas;
    req.addr = a;
    req.size = size;
    req.wdata = desired;
    req.expected = expected;
    return issue(n, req);
  }

  AccessResult issue(NodeId n, const AccessRequest& req) {
    // Space accesses far apart so link contention never skews latency
    // assertions.
    now_ += 100000;
    return ms_.access(n, req, now_);
  }

  /// Forces `block` out of node n's caches by filling its L2 set with
  /// conflicting blocks (stride = l2 sets * block size).
  void force_eviction(NodeId n, Addr addr) {
    const Addr stride = static_cast<Addr>(cfg_.l2.num_sets()) *
                        cfg_.l2.block_bytes * cfg_.num_nodes;
    Addr conflict = addr + stride;
    for (std::uint32_t i = 0; i <= cfg_.l2.assoc; ++i) {
      (void)read(n, conflict);
      conflict += stride;
    }
    EXPECT_FALSE(ms_.cache(n).probe(block_of(addr)).l2_hit);
  }

  [[nodiscard]] Addr block_of(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.l2.block_bytes - 1);
  }
  [[nodiscard]] CacheState state_of(NodeId n, Addr a) {
    return ms_.cache(n).probe(block_of(a)).state;
  }
  [[nodiscard]] const DirEntry& dir(Addr a) {
    return ms_.directory().entry(block_of(a));
  }
  /// The home's believed sharers of `a`, decoded by the machine's
  /// directory organisation.
  [[nodiscard]] SharerSet sharers(Addr a) {
    return ms_.directory_policy().believed_sharers(dir(a));
  }

  [[nodiscard]] MemorySystem& ms() noexcept { return ms_; }
  [[nodiscard]] Stats& stats() noexcept { return stats_; }
  [[nodiscard]] AddressSpace& space() noexcept { return space_; }
  [[nodiscard]] const MachineConfig& cfg() const noexcept { return cfg_; }

 private:
  MachineConfig cfg_;
  AddressSpace space_;
  Stats stats_;
  MemorySystem ms_;
  Cycles now_ = 0;
};

}  // namespace lssim

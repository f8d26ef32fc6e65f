// Two-level inclusive cache hierarchy for one node.
//
// Inclusion invariant: every valid L1 line is also valid in L2 with the
// same coherence state. The L2 copy is authoritative; L1 victims are
// silent (the L2 still holds the block), while L2 victims must be
// surfaced to the coherence protocol (writeback or replacement hint) and
// force the corresponding L1 line out.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "telemetry/registry.hpp"

namespace lssim {

struct ProbeResult {
  bool l1_hit = false;
  bool l2_hit = false;
  CacheState state = CacheState::kInvalid;
};

/// Resolved line pointers from a single hierarchy lookup. `l1` is only
/// probed (and can only be non-null) when `l2` hit — inclusion makes an
/// L1-only hit impossible. Pointers stay valid until the next structural
/// change (fill / invalidate) of the owning cache.
struct LineLookup {
  CacheLine* l1 = nullptr;
  CacheLine* l2 = nullptr;
};

class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2);

  /// Publishes this node's cache activity (L2 fills/evictions, L1
  /// refills) as per-node labelled counters. Registration only; the fill
  /// paths then pay one branch per event when attached, zero bumps when
  /// not.
  void attach_telemetry(MetricsRegistry* metrics, NodeId node);

  [[nodiscard]] ProbeResult probe(Addr block) const noexcept;

  /// probe(), but returning the resolved line pointers so the access hot
  /// path never repeats the associative search.
  [[nodiscard]] LineLookup lookup(Addr block) noexcept {
    LineLookup r;
    r.l2 = l2_.find(block);
    if (r.l2 != nullptr) {
      r.l1 = l1_.find(block);
    }
    return r;
  }

  /// Inserts `block` in both levels after a global fill. Returns a copy of
  /// the evicted L2 line (state kInvalid when none); the caller owns any
  /// resulting writeback/hint. The matching L1 copy of the L2 victim is
  /// invalidated to preserve inclusion.
  CacheLine fill(Addr block, CacheState state);

  /// On an L1 miss that hits in L2 (`line2`), refills L1 from it (silent
  /// L1 victim); returns the freshly inserted L1 line.
  CacheLine* refill_l1(const CacheLine& line2);

  /// Sets the coherence state of `block` in both levels (must be present
  /// in L2).
  void set_state(Addr block, CacheState state) noexcept;

  /// Invalidates `block` in both levels; returns the removed L2 line.
  CacheLine invalidate(Addr block) noexcept;

  /// Records a hit for LRU on the resolved line pointers: L2 first, then
  /// L1 when the block is there.
  void record_access(CacheLine* line1, CacheLine& line2) noexcept {
    l2_.touch(line2);
    if (line1 != nullptr) {
      l1_.touch(*line1);
    }
  }

  [[nodiscard]] Cache& l1() noexcept { return l1_; }
  [[nodiscard]] Cache& l2() noexcept { return l2_; }
  [[nodiscard]] const Cache& l1() const noexcept { return l1_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }
  [[nodiscard]] std::uint32_t block_bytes() const noexcept {
    return l2_.block_bytes();
  }

  /// Verifies the inclusion invariant (tests). Returns true when every
  /// valid L1 line has a same-state L2 twin.
  [[nodiscard]] bool check_inclusion() const;

 private:
  Cache l1_;
  Cache l2_;
  MetricsRegistry* metrics_ = nullptr;
  CounterHandle l2_fills_;
  CounterHandle l2_evictions_;
  CounterHandle l1_refills_;
};

}  // namespace lssim

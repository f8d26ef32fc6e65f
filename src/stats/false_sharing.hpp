// Dubois-style classification of coherence misses into true- and
// false-sharing misses (paper Table 4).
//
// Definition used (Dubois et al., ISCA'93, adapted to word granularity):
// a miss caused by an invalidation is a *false sharing* miss if, during
// the new lifetime of the block in the missing processor's cache, the
// processor never touches a word that was written by another processor
// between the invalidation and the re-fetch. Classification is therefore
// deferred: the refilled line is marked pending, its candidate
// foreign-written word mask stays here under its (block, node) key, and
// it is resolved on first intersection (true sharing) or at line death
// (false sharing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "cache/cache.hpp"
#include "sim/types.hpp"
#include "stats/stats.hpp"

namespace lssim {

class FalseSharingClassifier {
 public:
  /// Disabled classifiers are no-ops with zero cost; enable only for runs
  /// that need Table 4 (tracking costs memory proportional to the number
  /// of invalidated (node, block) pairs).
  FalseSharingClassifier(bool enabled, Stats& stats)
      : enabled_(enabled), stats_(stats) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Node `node` lost its copy of `block` to a coherence invalidation.
  void on_invalidated(NodeId node, Addr block) {
    if (!enabled_) return;
    pending_[block] |= std::uint64_t{1} << node;
    foreign_[{block, node}] = 0;
  }

  /// `writer` wrote the words in `mask` within `block`; accumulate them
  /// for every other node whose copy is currently invalidated.
  void on_write_words(NodeId writer, Addr block, std::uint64_t mask) {
    if (!enabled_) return;
    const auto it = pending_.find(block);
    if (it == pending_.end() || it->second == 0) return;
    std::uint64_t nodes = it->second & ~(std::uint64_t{1} << writer);
    while (nodes != 0) {
      const int node = __builtin_ctzll(nodes);
      nodes &= nodes - 1;
      foreign_[{block, static_cast<NodeId>(node)}] |= mask;
    }
  }

  /// Node `node` refills `block` after a miss. Marks the new line for
  /// deferred classification when the miss was invalidation-caused; its
  /// foreign mask stops growing and waits in foreign_ for resolution.
  void on_fill(NodeId node, Addr block, CacheLine& line) {
    if (!enabled_) return;
    const auto it = pending_.find(block);
    const std::uint64_t bit = std::uint64_t{1} << node;
    if (it == pending_.end() || (it->second & bit) == 0) return;
    it->second &= ~bit;
    line.fs_pending = true;
    stats_.coherence_misses += 1;
  }

  /// Called on every access by `node` to its pending line; resolves it
  /// as a true-sharing miss once the accessed words intersect the
  /// foreign set.
  void on_access(NodeId node, CacheLine& line, std::uint64_t word_mask) {
    if (!enabled_ || !line.fs_pending) return;
    const auto it = foreign_.find({line.block, node});
    if (it != foreign_.end() && (it->second & word_mask) != 0) {
      line.fs_pending = false;  // True sharing: not counted as false.
      foreign_.erase(it);
    }
  }

  /// `node`'s line died (eviction, invalidation, or end of run) while
  /// still pending: no foreign-written word was ever touched -> false
  /// sharing.
  void on_line_death(NodeId node, const CacheLine& line) {
    if (!enabled_ || !line.fs_pending) return;
    foreign_.erase({line.block, node});
    stats_.false_sharing_misses += 1;
  }

 private:
  /// Key of an invalidated copy: the full block address plus the node,
  /// so no two (node, block) pairs share one.
  struct CopyKey {
    Addr block = 0;
    NodeId node = 0;
    bool operator==(const CopyKey&) const = default;
  };
  struct CopyKeyHash {
    std::size_t operator()(const CopyKey& k) const noexcept {
      return std::hash<Addr>{}((k.block << 6) ^ k.node);
    }
  };

  bool enabled_;
  Stats& stats_;
  std::unordered_map<Addr, std::uint64_t> pending_;  // block -> node mask
  std::unordered_map<CopyKey, std::uint64_t, CopyKeyHash> foreign_;
};

/// Word mask covering [addr, addr+size) within its block.
[[nodiscard]] inline std::uint64_t word_mask_of(Addr addr, unsigned size,
                                                std::uint32_t block_bytes,
                                                std::uint32_t word_bytes) {
  const Addr offset = addr & (block_bytes - 1);
  const std::uint32_t first = static_cast<std::uint32_t>(offset / word_bytes);
  const std::uint32_t last =
      static_cast<std::uint32_t>((offset + size - 1) / word_bytes);
  std::uint64_t mask = 0;
  for (std::uint32_t w = first; w <= last && w < 64; ++w) {
    mask |= std::uint64_t{1} << w;
  }
  return mask;
}

}  // namespace lssim

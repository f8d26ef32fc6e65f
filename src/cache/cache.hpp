// Set-associative cache with LRU replacement.
//
// Caches here track coherence state and replacement behaviour only; data
// values live authoritatively in the simulated AddressSpace (the
// simulation is sequentially consistent and transactions are atomic, so a
// single value copy is exact).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace lssim {

/// Cache-line coherence state. kLStemp is the paper's extra state: an
/// exclusive-but-not-yet-written copy delivered to a read of a tagged
/// block (used by both the LS and the AD technique in this codebase; it
/// doubles as MESI's Exclusive state — same semantics, different
/// admission rule). kOwned is the MOESI/Dragon Owned state: a modified
/// copy that other caches also share; the owner services read misses and
/// is responsible for the eventual writeback (home memory is stale).
enum class CacheState : std::uint8_t {
  kInvalid = 0,
  kShared,
  kModified,
  kLStemp,
  kOwned,
};

[[nodiscard]] constexpr const char* to_string(CacheState s) noexcept {
  switch (s) {
    case CacheState::kInvalid: return "Invalid";
    case CacheState::kShared: return "Shared";
    case CacheState::kModified: return "Modified";
    case CacheState::kLStemp: return "LStemp";
    case CacheState::kOwned: return "Owned";
  }
  return "?";
}

struct CacheLine {
  Addr block = 0;  ///< Block-aligned address; meaningful iff state valid.
  /// Access site whose prediction granted this exclusive copy (kIls).
  std::uint32_t grant_site = 0;
  CacheState state = CacheState::kInvalid;
  /// L2 only: the fill was a coherence miss the false-sharing classifier
  /// has not yet resolved (its foreign-written word mask stays in the
  /// classifier, keyed by block and node).
  bool fs_pending = false;

  [[nodiscard]] bool valid() const noexcept {
    return state != CacheState::kInvalid;
  }
};

// Everything the probe path reads, in one 16-byte slot: four lines per
// host cache line, and a 128-node machine's L1+L2 arrays stay under
// 9 MiB. LRU stamps live in Cache, apart from the line, because only
// set-associative caches read them. Widening CacheLine is a hot-path and
// construction-time regression — think twice.
static_assert(sizeof(CacheLine) == 16, "CacheLine must stay two words");

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Returns the line holding `block`, or nullptr on miss. Inline: this
  /// is the single hottest operation in the simulator (every simulated
  /// access probes at least one level).
  [[nodiscard]] CacheLine* find(Addr block) noexcept {
    const std::size_t base = set_index(block) * config_.assoc;
    for (std::uint32_t way = 0; way < config_.assoc; ++way) {
      CacheLine& line = lines_[base + way];
      if (line.valid() && line.block == block) {
        return &line;
      }
    }
    return nullptr;
  }
  [[nodiscard]] const CacheLine* find(Addr block) const noexcept {
    return const_cast<Cache*>(this)->find(block);
  }

  /// Inserts `block` with the given state, evicting the set's LRU line if
  /// needed. Returns a copy of the victim (state kInvalid when the set had
  /// a free way). `block` must not already be present.
  CacheLine insert(Addr block, CacheState state) {
    assert(state != CacheState::kInvalid);
    assert(find(block) == nullptr && "block already present");
    CacheLine* victim = victim_way(block);
    const CacheLine evicted = *victim;
    fill_way(victim, block, state);
    return evicted;
  }

  /// insert() for callers that discard the victim (L1 under inclusion:
  /// the L2 still holds any replaced block). Same replacement decision
  /// and LRU accounting; returns the newly filled line.
  CacheLine* insert_silent(Addr block, CacheState state) noexcept {
    assert(state != CacheState::kInvalid);
    assert(find(block) == nullptr && "block already present");
    CacheLine* victim = victim_way(block);
    fill_way(victim, block, state);
    return victim;
  }

  /// Removes `block` if present; returns a copy of the removed line
  /// (state kInvalid if it was not present).
  CacheLine invalidate(Addr block) noexcept {
    CacheLine* line = find(block);
    if (line == nullptr) {
      return CacheLine{};
    }
    const CacheLine removed = *line;
    *line = CacheLine{};
    return removed;
  }

  /// Marks a hit for LRU purposes. Direct-mapped caches keep no stamps:
  /// they are only ever read to pick a victim among multiple ways, so
  /// with one way per set they are dead.
  void touch(const CacheLine& line) noexcept {
    if (lru_live_) {
      last_use_[way_index(line)] = ++use_clock_;
    }
  }

  /// `count` touches of `block`'s line, which may since have gone.
  void touch(Addr block, std::uint64_t count) noexcept {
    if (lru_live_) {
      use_clock_ += count;
      if (const CacheLine* line = find(block)) {
        last_use_[way_index(*line)] = use_clock_;
      }
    }
  }

  /// `line`'s LRU stamp; 0 in a direct-mapped cache (tests).
  [[nodiscard]] std::uint64_t last_use(const CacheLine& line) const noexcept {
    return lru_live_ ? last_use_[way_index(line)] : 0;
  }

  [[nodiscard]] std::uint32_t block_bytes() const noexcept {
    return config_.block_bytes;
  }
  [[nodiscard]] Addr block_of(Addr addr) const noexcept {
    return addr & block_mask_;
  }
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }

  /// Number of valid lines (tests / diagnostics).
  [[nodiscard]] std::size_t valid_lines() const noexcept;

  /// Applies `fn` to every valid line (tests, end-of-run flushes).
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& line : lines_) {
      if (line.valid()) fn(line);
    }
  }
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& line : lines_) {
      if (line.valid()) fn(line);
    }
  }

 private:
  // Block size and set count are validated powers of two, so indexing is
  // shift-and-mask — no division on the per-access path.
  [[nodiscard]] std::size_t set_index(Addr block) const noexcept {
    return static_cast<std::size_t>(block >> block_shift_) & set_mask_;
  }

  [[nodiscard]] std::size_t way_index(const CacheLine& line) const noexcept {
    return static_cast<std::size_t>(&line - lines_.data());
  }

  /// Replacement decision for `block`'s set: the first invalid way, else
  /// the way with the lowest LRU stamp.
  [[nodiscard]] CacheLine* victim_way(Addr block) noexcept {
    const std::size_t base = set_index(block) * config_.assoc;
    if (!lru_live_) {
      return &lines_[base];
    }
    std::size_t victim = base;
    for (std::size_t way = base; way < base + config_.assoc; ++way) {
      if (!lines_[way].valid()) {
        return &lines_[way];
      }
      if (last_use_[way] < last_use_[victim]) {
        victim = way;
      }
    }
    return &lines_[victim];
  }

  void fill_way(CacheLine* way, Addr block, CacheState state) noexcept {
    *way = CacheLine{.block = block, .state = state};
    touch(*way);
  }

  CacheConfig config_;
  std::size_t num_sets_;
  std::size_t set_mask_;
  std::uint32_t block_shift_;
  Addr block_mask_;
  bool lru_live_;  ///< assoc > 1: replacement actually reads last_use_.
  std::vector<CacheLine> lines_;  // num_sets_ * assoc, set-major.
  std::vector<std::uint64_t> last_use_;  // Parallel to lines_ iff lru_live_.
  std::uint64_t use_clock_ = 0;
};

}  // namespace lssim

// Directory state (paper §2, §3.1 and Figure 1).
//
// One DirEntry exists per memory block ever accessed globally. The entry
// combines the DASH-style state with the paper's LS extension fields:
// the last-reader (LR) bit-field and the LS bit ("tagged" here, since
// the AD technique reuses the same storage for its migratory bit). The
// 64-bit `sharers` word is an *encoding* owned by the active directory
// organisation (core/directory_policy.hpp): a presence bitmap under
// full-map, packed node pointers under limited-pointer, region bits
// under coarse-vector/sparse. The bitmap helpers below are the full-map
// encoding's accessors, used by the full-map policy and by tests.
//
// Entries live in a BlockTable (sim/block_table.hpp), the flat
// open-addressing table the load-store oracle also uses: one
// multiply-shift hash plus a short probe over 24-byte slots, an MRU slot
// for same-block re-access, and backward-shift erase for the sparse
// organisation's evictions. Directory adds entry creation on top: the
// §5.5 default-tagged variation and the entries-created metric.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>

#include "sim/block_table.hpp"
#include "sim/types.hpp"
#include "telemetry/registry.hpp"

namespace lssim {

/// Memory-side (home) state of a block, Figure 1 of the paper.
/// kExcl is the figure's "Load-Store" state: exactly one cache holds the
/// block exclusively after an exclusive read reply; the home learns about
/// the owning write lazily (the whole point is that the write sends no
/// message), so kExcl covers both the written and not-yet-written owner.
/// kOwned (MOESI / Dragon only): `owner` holds a modified copy AND other
/// caches may hold shared copies — the `sharers` word encodes the
/// NON-owner sharers. Home memory is stale; the owner services reads and
/// owes the eventual writeback.
enum class DirState : std::uint8_t {
  kUncached = 0,
  kShared,
  kDirty,
  kExcl,
  kOwned,
};

[[nodiscard]] constexpr const char* to_string(DirState s) noexcept {
  switch (s) {
    case DirState::kUncached: return "Uncached";
    case DirState::kShared: return "Shared";
    case DirState::kDirty: return "Dirty";
    case DirState::kExcl: return "Load-Store";
    case DirState::kOwned: return "Owned";
  }
  return "?";
}

struct DirEntry {
  /// Organisation-encoded sharer word (kShared): a presence bitmap under
  /// full-map, packed node pointers under limited-pointer, region bits
  /// under coarse-vector/sparse. Only the active DirectoryPolicy and the
  /// bitmap helpers below interpret it.
  std::uint64_t sharers = 0;
  NodeId owner = kInvalidNode;        ///< Valid in kDirty / kExcl.
  NodeId last_reader = kInvalidNode;  ///< Paper's LR field.
  NodeId last_writer = kInvalidNode;  ///< Used by AD's migratory detection.
  DirState state = DirState::kUncached;
  bool tagged : 1 = false;            ///< LS bit / migratory bit.
  /// The organisation no longer knows the precise sharer set (Dir_iB
  /// pointer overflow, coarse regions wider than one node): invalidations
  /// must cover a superset and AD's migratory detector is blind.
  bool imprecise : 1 = false;
  std::uint8_t tag_progress : 3 = 0;  ///< Hysteresis counters (§5.5),
  std::uint8_t detag_progress : 3 = 0;  ///< depth <= 7 (bit-field width).

  /// Full-map-encoding accessors: bit n of `sharers` = node n (<= 64
  /// nodes). Organisations with other encodings go through their
  /// DirectoryPolicy instead.
  [[nodiscard]] int sharer_count() const noexcept {
    return std::popcount(sharers);
  }
  [[nodiscard]] bool is_sharer(NodeId node) const noexcept {
    return (sharers >> node) & 1u;
  }
  void add_sharer(NodeId node) noexcept { sharers |= std::uint64_t{1} << node; }
  void remove_sharer(NodeId node) noexcept {
    sharers &= ~(std::uint64_t{1} << node);
  }
};

// The sharer word, three 16-bit node ids, the state byte and the packed
// flag/hysteresis byte fit in exactly two words; a table slot (key +
// entry) is then 24 bytes, three per cache line. Widening DirEntry is a
// hot-path regression — think twice.
static_assert(sizeof(DirEntry) == 16, "DirEntry must stay two words");

class Directory {
 public:
  /// `default_tagged` implements the §5.5 variation where every block
  /// starts out tagged (first cold read returns an exclusive copy).
  explicit Directory(bool default_tagged = false)
      : default_tagged_(default_tagged) {}

  /// Publishes the directory's metrics (entry population) into
  /// `metrics`; pass null to detach. Registration only — hot-path entry
  /// creation then costs one branch plus one indexed bump.
  void attach_telemetry(MetricsRegistry* metrics);

  /// Entry for `block` (block-aligned address), created on first use.
  ///
  /// The reference is invalidated by a *later* entry() call that inserts
  /// (the table may grow), exactly like iterator invalidation on a
  /// rehashing map. The transaction engine acquires at most one new
  /// entry per coherence transaction (victim blocks were cached, so
  /// their entries already exist), which keeps every held reference
  /// valid for the duration of a transaction.
  [[nodiscard]] DirEntry& entry(Addr block) {
    return table_.entry(block, [this](DirEntry& e) {
      e.tagged = default_tagged_;
      if (metrics_ != nullptr) {
        metrics_->add(entries_created_);
      }
    });
  }

  /// Read-only lookup that does not create an entry.
  [[nodiscard]] const DirEntry* find(Addr block) const noexcept {
    return table_.find(block);
  }

  /// Removes `block`'s entry (sparse-organisation eviction); any held
  /// entry reference is invalidated. Returns false when no entry exists.
  bool erase(Addr block) noexcept { return table_.erase(block); }

  /// Pre-sizes the table so `entries` entries fit without growing —
  /// entry() then never invalidates references by rehashing (the sparse
  /// organisation relies on this: its population is bounded up front).
  void reserve(std::size_t entries) { table_.reserve(entries); }

  /// Deterministic eviction victim for inserting `block` into a full
  /// sparse directory: the first occupied slot at or after `block`'s
  /// preferred position — the entry a real set-limited directory cache
  /// would displace. The directory must be non-empty.
  [[nodiscard]] Addr victim_for(Addr block) const noexcept {
    return table_.victim_for(block);
  }

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

  /// Allocated slots (tests; always a power of two once non-empty).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return table_.capacity();
  }

  /// Visits every entry in slot order, which callers must not depend on.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    table_.for_each(std::forward<Fn>(fn));
  }

 private:
  BlockTable<DirEntry> table_;
  bool default_tagged_;
  MetricsRegistry* metrics_ = nullptr;
  CounterHandle entries_created_;
};

}  // namespace lssim

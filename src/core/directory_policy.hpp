// Directory-organisation seam: who the home believes holds a block.
//
// The transaction engine (core/protocol.cpp) never interprets the
// 64-bit sharer word in a DirEntry itself; it routes every sharer
// mutation and every sharer question through the machine's single
// DirectoryPolicy. An organisation is one of two encodings of that word
// plus its parameters:
//
//   BitVectorDirectory   bit r = a region of `region` consecutive nodes
//     full-map           region 1: bit n = node n (<= 64 nodes, exact)
//     coarse             --dir-region nodes per bit (0 = auto);
//                        imprecise whenever region > 1
//     sparse             auto region plus a bound of --dir-entries
//                        entries — the engine evicts victim entries
//                        (forcing invalidations) to stay under it
//   LimitedPtrDirectory  Dir_iB: up to 7 packed 8-bit node pointers plus
//                        a control byte; broadcast once they overflow
//
// make_directory_policy() maps each DirectoryKind to one of them; a new
// encoding is one more subclass and one more case there.
//
// The contract that keeps verification meaningful under imprecision:
// believed_sharers() must always be a *superset* of the caches that
// actually hold the block, and must equal it exactly whenever the
// entry's `imprecise` bit is clear. Encodings set that bit themselves;
// the engine and the invariant checker only read it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "core/directory.hpp"
#include "core/sharer_set.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace lssim {

class DirectoryPolicy {
 public:
  virtual ~DirectoryPolicy() = default;

  /// Forgets every sharer (transition to kUncached/kDirty/kExcl) and
  /// clears `imprecise` — every encoding is exact about an empty set.
  void clear_sharers(DirEntry& entry) const noexcept {
    entry.sharers = 0;
    entry.imprecise = false;
  }

  /// Records that `node` received a shared copy.
  virtual void add_sharer(DirEntry& entry, NodeId node) const noexcept = 0;

  /// Processes a replacement hint from `node`. Imprecise encodings may
  /// be unable to act on it (a coarse region bit covers other nodes);
  /// the believed set stays a superset either way.
  virtual void remove_sharer(DirEntry& entry, NodeId node) const noexcept = 0;

  /// True when the organisation cannot rule out that `node` holds a
  /// shared copy. Exact membership under precise encodings.
  [[nodiscard]] virtual bool may_be_sharer(const DirEntry& entry,
                                           NodeId node) const noexcept = 0;

  /// True when the believed sharer set is empty (the entry can drop to
  /// kUncached after a replacement hint). Both encodings keep an empty
  /// set as the all-zero word.
  [[nodiscard]] bool believed_empty(const DirEntry& entry) const noexcept {
    return entry.sharers == 0;
  }

  /// The decoded believed sharer set: always a superset of the actual
  /// holders, exact when `entry.imprecise` is clear.
  [[nodiscard]] virtual SharerSet believed_sharers(
      const DirEntry& entry) const noexcept = 0;

  /// Caches that must receive an invalidation when `requester` acquires
  /// ownership: the believed sharers minus the requester itself.
  [[nodiscard]] SharerSet invalidation_targets(const DirEntry& entry,
                                               NodeId requester) const {
    SharerSet targets = believed_sharers(entry);
    targets.reset(requester);
    return targets;
  }

  /// Entry-population bound of the sparse organisation; 0 = unbounded.
  [[nodiscard]] virtual std::uint32_t max_entries() const noexcept {
    return 0;
  }
};

// Bit-vector encoding (full-map, coarse vector after Gupta et al., and
// the sparse directory cache). Bit r of the sharer word covers the
// `region` consecutive nodes [r*region, (r+1)*region); an invalidation
// aimed at any node in a set region goes to the whole region. Region 1
// is the exact full-map bitmap, and every member branches on it so the
// paper's machine pays no division. With region > 1 the entry turns
// imprecise the moment a sharer is recorded, and replacement hints
// cannot clear region bits (other nodes of the region may still hold
// the block), so believed sharers can outlive the last real copy.
class BitVectorDirectory final : public DirectoryPolicy {
 public:
  /// `region` == 0 selects the smallest region that covers `num_nodes`
  /// with the word's 64 bits: ceil(num_nodes / 64). `max_entries` bounds
  /// the entry population (0 = unbounded).
  BitVectorDirectory(int region, int num_nodes,
                     std::uint32_t max_entries) noexcept
      : region_(region != 0 ? region : (num_nodes + 63) / 64),
        num_nodes_(num_nodes),
        max_entries_(max_entries) {
    assert(region_ >= 1 && region_ * 64 >= num_nodes);
  }

  void add_sharer(DirEntry& entry, NodeId node) const noexcept override {
    if (region_ == 1) {
      entry.sharers |= std::uint64_t{1} << node;
    } else {
      entry.sharers |= std::uint64_t{1} << (node / region_);
      entry.imprecise = true;
    }
  }

  void remove_sharer(DirEntry& entry, NodeId node) const noexcept override {
    if (region_ == 1) {
      entry.sharers &= ~(std::uint64_t{1} << node);
    }
    // region > 1: the bit covers other nodes — nothing can be cleared.
  }

  [[nodiscard]] bool may_be_sharer(const DirEntry& entry,
                                   NodeId node) const noexcept override {
    const int bit = region_ == 1 ? node : node / region_;
    return (entry.sharers >> bit) & 1u;
  }

  [[nodiscard]] SharerSet believed_sharers(
      const DirEntry& entry) const noexcept override {
    if (region_ == 1) {
      return SharerSet::from_bitmap(entry.sharers);
    }
    SharerSet set;
    std::uint64_t bits = entry.sharers;
    while (bits != 0) {
      const int r = std::countr_zero(bits);
      bits &= bits - 1;
      const int first = r * region_;
      const int last = std::min(first + region_, num_nodes_);
      for (int n = first; n < last; ++n) {
        set.set(static_cast<NodeId>(n));
      }
    }
    return set;
  }

  [[nodiscard]] std::uint32_t max_entries() const noexcept override {
    return max_entries_;
  }

  /// The sparse organisation's bound when --dir-entries is 0.
  static constexpr std::uint32_t kDefaultSparseEntries = 1024;

 private:
  int region_;
  int num_nodes_;
  std::uint32_t max_entries_;
};

// Limited-pointer Dir_iB encoding (Agarwal et al., ISCA'88). The sharer
// word stores up to `pointers` (<= 7) real node identifiers instead of a
// presence bitmap:
//
//   bits  0..55   seven 8-bit pointer slots, slot k = bits [8k, 8k+8)
//   bits 56..58   pointer count (0..7)
//   bit  63       overflow ("B" for broadcast): more sharers appeared
//                 than pointers exist, the set is no longer tracked
//
// On overflow the entry turns imprecise and an ownership acquisition
// must broadcast invalidations to every node (minus the requester).
// Node ids fit the 8-bit slots because kMaxNodes is 256.
class LimitedPtrDirectory final : public DirectoryPolicy {
 public:
  LimitedPtrDirectory(int pointers, int num_nodes) noexcept
      : pointers_(pointers), num_nodes_(num_nodes) {
    assert(pointers >= 1 && pointers <= kMaxPointers);
  }

  void add_sharer(DirEntry& entry, NodeId node) const noexcept override {
    if (overflowed(entry.sharers)) {
      return;  // Broadcast already covers every node.
    }
    const int n = count(entry.sharers);
    for (int k = 0; k < n; ++k) {
      if (pointer(entry.sharers, k) == node) {
        return;
      }
    }
    if (n == pointers_) {
      entry.sharers |= kOverflowBit;
      entry.imprecise = true;
      return;
    }
    entry.sharers |= std::uint64_t{node} << (8 * n);
    entry.sharers = (entry.sharers & ~kCountMask) |
                    (std::uint64_t(n + 1) << kCountShift);
  }

  void remove_sharer(DirEntry& entry, NodeId node) const noexcept override {
    if (overflowed(entry.sharers)) {
      return;  // Identity of the departing sharer is already lost.
    }
    const int n = count(entry.sharers);
    for (int k = 0; k < n; ++k) {
      if (pointer(entry.sharers, k) != node) {
        continue;
      }
      // Compact: move the last pointer into the vacated slot.
      const std::uint64_t last = pointer(entry.sharers, n - 1);
      std::uint64_t word = entry.sharers;
      word = (word & ~(std::uint64_t{0xFF} << (8 * k))) | (last << (8 * k));
      word &= ~(std::uint64_t{0xFF} << (8 * (n - 1)));
      entry.sharers =
          (word & ~kCountMask) | (std::uint64_t(n - 1) << kCountShift);
      return;
    }
  }

  [[nodiscard]] bool may_be_sharer(const DirEntry& entry,
                                   NodeId node) const noexcept override {
    if (overflowed(entry.sharers)) {
      return node < num_nodes_;
    }
    const int n = count(entry.sharers);
    for (int k = 0; k < n; ++k) {
      if (pointer(entry.sharers, k) == node) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] SharerSet believed_sharers(
      const DirEntry& entry) const noexcept override {
    if (overflowed(entry.sharers)) {
      return SharerSet::first_n(num_nodes_);
    }
    SharerSet set;
    const int n = count(entry.sharers);
    for (int k = 0; k < n; ++k) {
      set.set(pointer(entry.sharers, k));
    }
    return set;
  }

  static constexpr int kMaxPointers = 7;

 private:
  static constexpr int kCountShift = 56;
  static constexpr std::uint64_t kCountMask = std::uint64_t{0x7}
                                              << kCountShift;
  static constexpr std::uint64_t kOverflowBit = std::uint64_t{1} << 63;

  [[nodiscard]] static bool overflowed(std::uint64_t word) noexcept {
    return (word & kOverflowBit) != 0;
  }
  [[nodiscard]] static int count(std::uint64_t word) noexcept {
    return static_cast<int>((word & kCountMask) >> kCountShift);
  }
  [[nodiscard]] static NodeId pointer(std::uint64_t word, int k) noexcept {
    return static_cast<NodeId>((word >> (8 * k)) & 0xFF);
  }

  int pointers_;
  int num_nodes_;
};

/// Constructs the organisation for `config.directory_scheme`.
[[nodiscard]] inline std::unique_ptr<DirectoryPolicy> make_directory_policy(
    const MachineConfig& config) {
  const int nodes = config.num_nodes;
  switch (config.directory_scheme) {
    case DirectoryKind::kFullMap:
      return std::make_unique<BitVectorDirectory>(1, nodes, 0);
    case DirectoryKind::kLimitedPtr:
      return std::make_unique<LimitedPtrDirectory>(config.directory_pointers,
                                                   nodes);
    case DirectoryKind::kCoarseVector:
      return std::make_unique<BitVectorDirectory>(config.directory_region,
                                                  nodes, 0);
    case DirectoryKind::kSparse:
      return std::make_unique<BitVectorDirectory>(
          0, nodes,
          config.directory_entries != 0
              ? config.directory_entries
              : BitVectorDirectory::kDefaultSparseEntries);
  }
  assert(false && "unknown DirectoryKind");
  return nullptr;
}

}  // namespace lssim

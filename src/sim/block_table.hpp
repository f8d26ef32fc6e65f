// Block-keyed open-addressing hash table: the storage under the home
// directory (core/directory.hpp), the load-store oracle
// (stats/ls_oracle.hpp) and simulated memory's data chunks
// (mem/address_space.hpp).
//
// The first two are consulted on every global transaction, the chunks
// on every access, so the table is flat rather than std::unordered_map:
// power-of-two capacity starting at 256 slots, a Fibonacci multiply-shift
// hash, linear probing over one contiguous slot array, growth at 3/4
// load, and no tombstones — erase() shifts the rest of the probe chain
// back instead. A one-entry MRU slot
// short-circuits the common same-block re-access (spin-lock hand-offs,
// load-store sequences). See docs/PERFORMANCE.md "Block table".
//
// The sparse directory's eviction victim (victim_for) follows from the
// hash, the initial capacity, the growth rule and the slot moves of
// backward-shift deletion. Changing any of them changes simulated
// results (the sparse rows of ablation_directory).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

template <typename V>
class BlockTable {
  struct NoHook {
    void operator()(V&) const noexcept {}
  };

 public:
  /// Value for `block` (a block-aligned address). On first use a
  /// value-initialised V is inserted and `on_insert(value)` runs once.
  ///
  /// The reference is invalidated by a *later* insert that grows the
  /// table, exactly like iterator invalidation on a rehashing map, and
  /// by erase().
  template <typename OnInsert = NoHook>
  [[nodiscard]] V& entry(Addr block, OnInsert on_insert = {}) {
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (mru_key_ == block) {
      return slots_[mru_index_].value;
    }
    if (slots_.empty()) {
      grow(kInitialCapacity);
    }
    std::size_t i = probe_start(block);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.key == block) {
        remember(block, i);
        return slot.value;
      }
      if (slot.key == kEmptyKey) {
        if (size_ + 1 > capacity_limit()) {
          grow(slots_.size() * 2);
          i = empty_slot_for(block);  // Re-probe in the grown table.
        }
        Slot& fresh = slots_[i];
        fresh.key = block;
        fresh.value = V{};
        size_ += 1;
        remember(block, i);
        on_insert(fresh.value);
        return fresh.value;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Read-only lookup that does not insert.
  [[nodiscard]] const V* find(Addr block) const noexcept {
    // The sentinel would false-hit the MRU check of a never-grown table
    // (mru_key_ starts as kEmptyKey) and index an empty slot vector.
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (mru_key_ == block) {
      return &slots_[mru_index_].value;
    }
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = probe_start(block);; i = (i + 1) & mask_) {
      if (slots_[i].key == block) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  /// Removes `block`'s value by backward-shift deletion, so probe chains
  /// need no tombstones. Returns false when `block` is absent.
  bool erase(Addr block) noexcept {
    assert(block != kEmptyKey && "block address collides with sentinel");
    if (slots_.empty()) {
      return false;
    }
    std::size_t hole = probe_start(block);
    while (slots_[hole].key != block) {
      if (slots_[hole].key == kEmptyKey) {
        return false;
      }
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      // Slot j's value may shift up only if its preferred position lies
      // at or before the hole (cyclic probe distance).
      const std::size_t preferred = probe_start(slots_[j].key);
      if (((j - preferred) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_ -= 1;
    mru_key_ = kEmptyKey;  // Slots may have shifted.
    return true;
  }

  /// Pre-sizes the table so `values` values fit without growing; entry()
  /// then never invalidates references by rehashing.
  void reserve(std::size_t values) {
    std::size_t capacity = std::max(slots_.size(), kInitialCapacity);
    while (capacity - capacity / 4 < values) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      grow(capacity);
    }
  }

  /// The first occupied slot's key at or after `block`'s preferred
  /// position. The table must be non-empty.
  [[nodiscard]] Addr victim_for(Addr block) const noexcept {
    assert(size_ > 0);
    std::size_t i = probe_start(block);
    while (slots_[i].key == kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return slots_[i].key;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Allocated slots (always a power of two once non-empty).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Visits every (block, value) in slot order, which callers must not
  /// depend on.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Addr key = kEmptyKey;
    V value{};
  };

  /// Block addresses are block-aligned (blocks are >= 8 bytes), so the
  /// all-ones address can never name a real block.
  static constexpr Addr kEmptyKey = ~Addr{0};
  static constexpr std::size_t kInitialCapacity = 256;

  [[nodiscard]] std::size_t probe_start(Addr block) const noexcept {
    // Fibonacci multiply-shift: block addresses share low zero bits
    // (block alignment) and arithmetic strides; the multiply diffuses
    // both into the top bits we keep.
    const Addr hash = block * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(hash >> shift_) & mask_;
  }

  /// Grow threshold: 3/4 load factor keeps linear probe chains short.
  [[nodiscard]] std::size_t capacity_limit() const noexcept {
    return slots_.size() - slots_.size() / 4;
  }

  [[nodiscard]] std::size_t empty_slot_for(Addr block) const noexcept {
    std::size_t i = probe_start(block);
    while (slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void grow(std::size_t capacity) {
    assert(std::has_single_bit(capacity));
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    mru_key_ = kEmptyKey;  // Slot indices moved.
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) slots_[empty_slot_for(slot.key)] = slot;
    }
  }

  void remember(Addr block, std::size_t index) noexcept {
    mru_key_ = block;
    mru_index_ = index;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  Addr mru_key_ = kEmptyKey;
  std::size_t mru_index_ = 0;
};

}  // namespace lssim

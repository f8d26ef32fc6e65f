// Protocol-independent tracking of load-store sequences (paper §2,
// Tables 2 and 3).
//
// A *load-store sequence* is a global read from processor p to block b
// followed by a global write action from p to b with no intervening
// access to b from any other processor. A load-store write is classified
// *migratory* when the previous completed load-store sequence on the same
// block was performed by a different processor (data migrates).
//
// The oracle observes the logical global access stream: actual global
// reads/writes plus "eliminated" writes — stores satisfied locally
// because the line was held exclusive-unwritten (LStemp), which would
// have been global write actions under the baseline protocol. This makes
// Table 3's coverage ratios directly measurable in an LS or AD run.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

struct LsOracleCounters {
  std::uint64_t global_writes = 0;      ///< Actual + eliminated.
  std::uint64_t ls_writes = 0;          ///< Part of a load-store sequence.
  std::uint64_t migratory_writes = 0;   ///< Migratory subset of ls_writes.
  std::uint64_t eliminated = 0;         ///< Satisfied locally (no global act).
  std::uint64_t eliminated_ls = 0;
  std::uint64_t eliminated_migratory = 0;

  bool operator==(const LsOracleCounters&) const = default;

  LsOracleCounters& operator+=(const LsOracleCounters& other) noexcept {
    global_writes += other.global_writes;
    ls_writes += other.ls_writes;
    migratory_writes += other.migratory_writes;
    eliminated += other.eliminated;
    eliminated_ls += other.eliminated_ls;
    eliminated_migratory += other.eliminated_migratory;
    return *this;
  }

  /// Table 2 row 1: fraction of global write actions that are load-store.
  [[nodiscard]] double ls_fraction() const noexcept {
    return global_writes == 0
               ? 0.0
               : static_cast<double>(ls_writes) /
                     static_cast<double>(global_writes);
  }
  /// Table 2 row 2: fraction of load-store writes that are migratory.
  [[nodiscard]] double migratory_fraction() const noexcept {
    return ls_writes == 0 ? 0.0
                          : static_cast<double>(migratory_writes) /
                                static_cast<double>(ls_writes);
  }
  /// Table 3 column 1: load-store writes removed by the technique.
  [[nodiscard]] double ls_coverage() const noexcept {
    return ls_writes == 0 ? 0.0
                          : static_cast<double>(eliminated_ls) /
                                static_cast<double>(ls_writes);
  }
  /// Table 3 column 2: migratory writes removed by the technique.
  [[nodiscard]] double migratory_coverage() const noexcept {
    return migratory_writes == 0 ? 0.0
                                 : static_cast<double>(eliminated_migratory) /
                                       static_cast<double>(migratory_writes);
  }
};

class LoadStoreOracle {
 public:
  explicit LoadStoreOracle(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Host-cache warming hint: pulls `block`'s probe slot into the host
  /// cache ahead of an upcoming access. No simulated effect (see
  /// Cache::prefetch).
  void prefetch(Addr block) const noexcept {
    if (enabled_ && !slots_.empty()) {
      __builtin_prefetch(&slots_[probe_start(block)], 1);
    }
  }

  void on_global_read(NodeId node, Addr block) {
    if (!enabled_) return;
    state_for(block).pending_reader = node;
  }

  /// Pre-sizes the table so `blocks` distinct blocks fit without
  /// growing. The table is never iterated and slots are never erased, so
  /// capacity is unobservable — results are identical, only the
  /// grow-rehash churn disappears. The replay engine uses the population
  /// observed on an earlier replay of the same trace as the hint.
  void reserve(std::size_t blocks) {
    std::size_t capacity = std::max(slots_.size(), kInitialCapacity);
    while (capacity - capacity / 4 < blocks) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      grow(capacity);
    }
  }

  /// Distinct blocks tracked so far (replay pre-sizing, tests).
  [[nodiscard]] std::size_t population() const noexcept { return size_; }

  /// `eliminated` marks a would-be global write satisfied locally in
  /// state LStemp.
  void on_global_write(NodeId node, Addr block, bool eliminated,
                       StreamTag tag) {
    if (!enabled_) return;
    BlockState& st = state_for(block);
    const bool is_ls = st.pending_reader == node;
    const bool is_migratory =
        is_ls && st.last_ls_owner != kInvalidNode && st.last_ls_owner != node;
    LsOracleCounters& c = per_tag_[static_cast<std::size_t>(tag)];
    c.global_writes += 1;
    if (is_ls) {
      c.ls_writes += 1;
      st.last_ls_owner = node;
    }
    if (is_migratory) c.migratory_writes += 1;
    if (eliminated) {
      c.eliminated += 1;
      if (is_ls) c.eliminated_ls += 1;
      if (is_migratory) c.eliminated_migratory += 1;
    }
    st.pending_reader = kInvalidNode;
  }

  [[nodiscard]] const LsOracleCounters& counters(StreamTag tag) const {
    return per_tag_[static_cast<std::size_t>(tag)];
  }
  [[nodiscard]] LsOracleCounters total() const {
    LsOracleCounters sum;
    for (const auto& c : per_tag_) sum += c;
    return sum;
  }

 private:
  struct BlockState {
    NodeId pending_reader = kInvalidNode;
    NodeId last_ls_owner = kInvalidNode;
  };

  // Per-block state lives in an open-addressing flat table (same layout
  // rationale as core/directory.hpp): the oracle is consulted on every
  // global transaction, and a contiguous 16-byte-slot probe beats a
  // node-based map's bucket chase. Slots are never erased and the table
  // is never iterated, so growth is the only structural operation.
  struct Slot {
    Addr key = kEmptyKey;
    BlockState state;
  };

  /// Block addresses are block-aligned, so the all-ones address can
  /// never name a real block.
  static constexpr Addr kEmptyKey = ~Addr{0};
  static constexpr std::size_t kInitialCapacity = 256;

  [[nodiscard]] std::size_t probe_start(Addr block) const noexcept {
    // Fibonacci multiply-shift, as in the directory: diffuses the block
    // alignment's low zero bits into the kept top bits.
    return static_cast<std::size_t>(
               (block * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  void grow(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = probe_start(s.key);
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i] = s;
    }
  }

  [[nodiscard]] BlockState& state_for(Addr block) {
    if (slots_.empty()) {
      grow(kInitialCapacity);
    }
    for (;;) {
      std::size_t i = probe_start(block);
      for (;; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.key == block) {
          return s.state;
        }
        if (s.key == kEmptyKey) {
          break;
        }
      }
      // 3/4 load-factor ceiling keeps probe chains short.
      if (size_ + 1 > slots_.size() - slots_.size() / 4) {
        grow(slots_.size() * 2);
        continue;  // Re-probe in the grown table.
      }
      slots_[i].key = block;
      size_ += 1;
      return slots_[i].state;
    }
  }

  bool enabled_;
  std::array<LsOracleCounters, kNumStreamTags> per_tag_{};
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace lssim

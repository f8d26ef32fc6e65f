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
//
// Per-block state lives in a BlockTable (sim/block_table.hpp), the flat
// open-addressing table the home directory also uses: the oracle is
// consulted on every global transaction. Values are never erased and the
// table is never iterated, so its layout is unobservable.
#pragma once

#include <array>
#include <cstdint>

#include "sim/block_table.hpp"
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

  void on_global_read(NodeId node, Addr block) {
    if (!enabled_) return;
    blocks_.entry(block).pending_reader = node;
  }

  /// `eliminated` marks a would-be global write satisfied locally in
  /// state LStemp.
  void on_global_write(NodeId node, Addr block, bool eliminated,
                       StreamTag tag) {
    if (!enabled_) return;
    BlockState& st = blocks_.entry(block);
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

  bool enabled_;
  std::array<LsOracleCounters, kNumStreamTags> per_tag_{};
  BlockTable<BlockState> blocks_;
};

}  // namespace lssim

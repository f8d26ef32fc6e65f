// Simulation statistics mirroring the paper's reported metrics.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace lssim {

/// Per-processor execution-time breakdown (paper Figures 3/4/6/7, left
/// diagrams). Every simulated cycle of a processor is exactly one of
/// busy / read stall / write stall.
struct TimeBreakdown {
  Cycles busy = 0;
  Cycles read_stall = 0;
  Cycles write_stall = 0;

  [[nodiscard]] Cycles total() const noexcept {
    return busy + read_stall + write_stall;
  }
  bool operator==(const TimeBreakdown&) const = default;
  TimeBreakdown& operator+=(const TimeBreakdown& other) noexcept {
    busy += other.busy;
    read_stall += other.read_stall;
    write_stall += other.write_stall;
    return *this;
  }
};

/// Directory state of a block at the home node when a global read miss
/// arrives (paper Figures 3/4/6/7, right diagrams). "Exclusive" means the
/// block is tagged load-store / migratory.
enum class HomeStateAtMiss : std::uint8_t {
  kClean = 0,       ///< Home copy valid, block untagged.
  kDirty = 1,       ///< Modified in a remote cache, block untagged.
  kCleanExcl = 2,   ///< Tagged; home copy still valid.
  kDirtyExcl = 3,   ///< Tagged; modified in a remote cache.
};
inline constexpr int kNumHomeStates = 4;

[[nodiscard]] constexpr const char* to_string(HomeStateAtMiss s) noexcept {
  switch (s) {
    case HomeStateAtMiss::kClean: return "Clean";
    case HomeStateAtMiss::kDirty: return "Dirty";
    case HomeStateAtMiss::kCleanExcl: return "Clean exclusive";
    case HomeStateAtMiss::kDirtyExcl: return "Dirty exclusive";
  }
  return "?";
}

/// Whole-run statistics. One instance per simulation.
struct Stats {
  explicit Stats(int num_nodes)
      : per_proc(static_cast<std::size_t>(num_nodes)) {}

  // --- time ---------------------------------------------------------
  std::vector<TimeBreakdown> per_proc;
  [[nodiscard]] TimeBreakdown time_total() const noexcept {
    TimeBreakdown sum;
    for (const auto& t : per_proc) sum += t;
    return sum;
  }

  // --- traffic --------------------------------------------------------
  std::array<std::uint64_t, kNumMsgTypes> messages_by_type{};
  [[nodiscard]] std::uint64_t messages_of_class(MsgClass cls) const noexcept {
    std::uint64_t sum = 0;
    for (int t = 0; t < kNumMsgTypes; ++t) {
      if (msg_class(static_cast<MsgType>(t)) == cls) {
        sum += messages_by_type[static_cast<std::size_t>(t)];
      }
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t messages_total() const noexcept {
    std::uint64_t sum = 0;
    for (auto count : messages_by_type) sum += count;
    return sum;
  }

  // --- cache / miss counters ------------------------------------------
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t global_read_misses = 0;
  std::uint64_t global_write_actions = 0;  ///< Upgrades + write misses.
  std::array<std::uint64_t, kNumHomeStates> read_miss_home_state{};

  // --- ownership overhead ----------------------------------------------
  std::uint64_t ownership_acquisitions = 0;  ///< "Global Inv's" (Fig 5).
  std::uint64_t invalidations_sent = 0;      ///< "Invalidations" (Fig 5).
  std::uint64_t single_invalidations = 0;    ///< Acquisitions with one inval.
  /// Writes satisfied locally because the line was held exclusive-unwritten
  /// (LStemp): ownership acquisitions the technique eliminated.
  std::uint64_t eliminated_acquisitions = 0;
  /// Sparse-organisation directory-entry evictions (each one forces the
  /// victim block's cached copies to be invalidated / written back).
  std::uint64_t dir_entry_evictions = 0;

  // --- protocol events --------------------------------------------------
  std::uint64_t blocks_tagged = 0;
  std::uint64_t blocks_detagged = 0;
  std::uint64_t notls_messages = 0;
  std::uint64_t exclusive_read_replies = 0;
  /// Write-update protocols (Dragon): writes that pushed new data to at
  /// least one remote shared copy instead of invalidating it...
  std::uint64_t update_transactions = 0;
  /// ...and how many remote copies those writes updated in total.
  std::uint64_t updates_sent = 0;

  // --- false sharing (paper Table 4) ------------------------------------
  std::uint64_t network_hops = 0;           ///< Physical link traversals.
  std::uint64_t coherence_misses = 0;       ///< Invalidation-caused misses.
  std::uint64_t false_sharing_misses = 0;   ///< Dubois-classified subset.
  std::uint64_t data_misses = 0;            ///< All L2 data misses.
};

}  // namespace lssim

// Time-resolved statistics: latency histograms and an epoch timeline.
//
// The paper reports end-of-run aggregates; a production simulator also
// needs distributions (was the win in the tail or the median?) and
// time series (did behaviour change between program phases?). Both are
// cheap: histograms use power-of-two buckets, the timeline snapshots
// counters at fixed simulated-time epochs.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lssim {

/// Power-of-two-bucket latency histogram: bucket i holds latencies in
/// [2^i, 2^(i+1)).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 24;

  /// Records `count` samples of `latency`.
  void record(Cycles latency, std::uint64_t count = 1) noexcept {
    const int bucket =
        latency == 0
            ? 0
            : std::min(kBuckets - 1,
                       64 - 1 - std::countl_zero(
                                    static_cast<std::uint64_t>(latency)));
    counts_[static_cast<std::size_t>(bucket)] += count;
    total_ += latency * count;
    samples_ += count;
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t count(int bucket) const noexcept {
    return counts_[static_cast<std::size_t>(bucket)];
  }
  [[nodiscard]] double mean() const noexcept {
    return samples_ == 0 ? 0.0
                         : static_cast<double>(total_) /
                               static_cast<double>(samples_);
  }

  /// Smallest latency L such that at least `q` (0..1) of samples are <=
  /// the upper edge of L's bucket. Bucket-granular (upper edge returned).
  [[nodiscard]] Cycles percentile(double q) const noexcept {
    if (samples_ == 0) return 0;
    const auto want = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[static_cast<std::size_t>(b)];
      if (seen >= want) {
        return (Cycles{1} << (b + 1)) - 1;
      }
    }
    return (Cycles{1} << kBuckets) - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t samples_ = 0;
};

/// One sampled epoch of machine activity.
struct EpochSample {
  Cycles end_time = 0;       ///< Simulated time at the epoch boundary.
  std::uint64_t accesses = 0;
  std::uint64_t messages = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_actions = 0;
  std::uint64_t eliminated = 0;
};

/// Accumulates per-epoch deltas of a few headline counters. The System
/// scheduler feeds it the current totals; the recorder differentiates.
class EpochTimeline {
 public:
  explicit EpochTimeline(Cycles epoch_length = 0)
      : epoch_length_(epoch_length), next_boundary_(epoch_length) {}

  [[nodiscard]] bool enabled() const noexcept { return epoch_length_ > 0; }
  [[nodiscard]] Cycles epoch_length() const noexcept {
    return epoch_length_;
  }

  /// Called with monotonically increasing simulated time and the running
  /// totals; emits one sample per crossed epoch boundary.
  void observe(Cycles now, std::uint64_t accesses, std::uint64_t messages,
               std::uint64_t read_misses, std::uint64_t write_actions,
               std::uint64_t eliminated) {
    if (!enabled()) return;
    while (now >= next_boundary_) {
      samples_.push_back(EpochSample{
          next_boundary_, accesses - last_.accesses,
          messages - last_.messages, read_misses - last_.read_misses,
          write_actions - last_.write_actions,
          eliminated - last_.eliminated});
      last_ = EpochSample{next_boundary_, accesses, messages, read_misses,
                          write_actions, eliminated};
      next_boundary_ += epoch_length_;
    }
  }

  [[nodiscard]] const std::vector<EpochSample>& samples() const noexcept {
    return samples_;
  }

 private:
  Cycles epoch_length_;
  Cycles next_boundary_;
  EpochSample last_{};
  std::vector<EpochSample> samples_;
};

/// Node-to-node message counts (who talks to whom).
class TrafficMatrix {
 public:
  explicit TrafficMatrix(int num_nodes)
      : num_nodes_(num_nodes),
        counts_(static_cast<std::size_t>(num_nodes) *
                    static_cast<std::size_t>(num_nodes),
                0) {}

  void record(NodeId src, NodeId dst) noexcept {
    counts_[static_cast<std::size_t>(src) *
                static_cast<std::size_t>(num_nodes_) +
            dst] += 1;
  }
  [[nodiscard]] std::uint64_t count(NodeId src, NodeId dst) const noexcept {
    return counts_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(num_nodes_) +
                   dst];
  }
  [[nodiscard]] std::uint64_t row_total(NodeId src) const noexcept {
    std::uint64_t sum = 0;
    for (int d = 0; d < num_nodes_; ++d) {
      sum += count(src, static_cast<NodeId>(d));
    }
    return sum;
  }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }

 private:
  int num_nodes_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace lssim

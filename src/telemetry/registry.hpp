// Metrics registry: named counters, gauges and log-scale histograms with
// O(1) hot-path updates.
//
// Components register metrics once at construction (slow path: a name /
// label-set lookup) and receive a stable integer handle; every update is
// then a plain indexed `uint64_t` bump — no maps, no strings, no hashing
// on the fast path. Snapshots copy the value arrays; snapshot_delta
// subtracts two snapshots, which is how a caller samples epochs.
//
// Components hold a `MetricsRegistry*` that is null when telemetry is
// disabled, so a disabled run pays one predictable branch per hook.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace lssim {

/// Metric label set: ordered key/value pairs ({"node","3"}, ...). Small
/// and only touched at registration/snapshot time.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

struct CounterHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};
struct GaugeHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};
struct HistogramHandle {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const noexcept { return index != UINT32_MAX; }
};

/// Log-scale (power-of-two bucket) histogram data: bucket i counts values
/// in [2^i, 2^(i+1)); bucket 0 also holds zeros.
struct HistogramData {
  static constexpr int kBuckets = 32;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t samples = 0;
  std::uint64_t sum = 0;

  static constexpr int bucket_of(std::uint64_t value) noexcept {
    return value == 0
               ? 0
               : std::min(kBuckets - 1, 63 - std::countl_zero(value));
  }

  /// Records `count` samples of `value`.
  void observe(std::uint64_t value, std::uint64_t count = 1) noexcept {
    counts[static_cast<std::size_t>(bucket_of(value))] += count;
    samples += count;
    sum += value * count;
  }

  [[nodiscard]] double mean() const noexcept {
    return samples == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(samples);
  }

  /// Upper edge of the bucket holding the q'th (0..1) sample.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    if (samples == 0) return 0;
    const auto want =
        static_cast<std::uint64_t>(q * static_cast<double>(samples));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts[static_cast<std::size_t>(b)];
      if (seen >= want && seen > 0) {
        return (std::uint64_t{1} << (b + 1)) - 1;
      }
    }
    return ~std::uint64_t{0};
  }

  HistogramData& operator-=(const HistogramData& other) noexcept {
    for (int b = 0; b < kBuckets; ++b) {
      counts[static_cast<std::size_t>(b)] -=
          other.counts[static_cast<std::size_t>(b)];
    }
    samples -= other.samples;
    sum -= other.sum;
    return *this;
  }
};

/// Registration-time description of one metric.
struct MetricDesc {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  MetricLabels labels;
  /// Index into the value array of the metric's kind.
  std::uint32_t slot = 0;

  /// "name{k=v,k2=v2}" — the registry's uniqueness key and the display
  /// form used by text dumps.
  [[nodiscard]] std::string full_name() const;
};

/// A point-in-time copy of every metric value, self-contained (owns the
/// descriptors) so it outlives the registry that produced it.
struct MetricsSnapshot {
  std::vector<MetricDesc> descs;
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<HistogramData> histograms;

  [[nodiscard]] bool empty() const noexcept { return descs.empty(); }

  /// Counter value by full name ("name{k=v}"); 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& full) const;

  /// Sum of all counters sharing `name` across label sets.
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  /// Histogram data by full name ("name{k=v}"); nullptr when absent.
  [[nodiscard]] const HistogramData* histogram(const std::string& full) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (slow path; idempotent per name+labels) ------------
  CounterHandle counter(std::string name, MetricLabels labels = {});
  GaugeHandle gauge(std::string name, MetricLabels labels = {});
  HistogramHandle histogram(std::string name, MetricLabels labels = {});

  // --- hot path --------------------------------------------------------
  void add(CounterHandle h, std::uint64_t delta = 1) noexcept {
    counters_[h.index] += delta;
  }
  void set(GaugeHandle h, std::int64_t value) noexcept {
    gauges_[h.index] = value;
  }
  void observe(HistogramHandle h, std::uint64_t value,
               std::uint64_t count = 1) noexcept {
    histograms_[h.index].observe(value, count);
  }

  // --- inspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t value(CounterHandle h) const noexcept {
    return counters_[h.index];
  }
  [[nodiscard]] std::int64_t value(GaugeHandle h) const noexcept {
    return gauges_[h.index];
  }
  [[nodiscard]] const HistogramData& data(HistogramHandle h) const noexcept {
    return histograms_[h.index];
  }
  [[nodiscard]] std::size_t num_metrics() const noexcept {
    return descs_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::uint32_t register_metric(std::string name, MetricLabels labels,
                                MetricKind kind);

  std::vector<MetricDesc> descs_;
  std::map<std::string, std::uint32_t> by_name_;  ///< full_name -> desc idx.
  std::vector<std::uint64_t> counters_;
  std::vector<std::int64_t> gauges_;
  std::vector<HistogramData> histograms_;
};

/// later - earlier, element-wise: counters and histogram buckets subtract,
/// gauges keep the later value. Descriptors must match (same registry,
/// `earlier` taken first); extra metrics registered after `earlier` are
/// kept as-is. Throws std::invalid_argument when `later` has fewer slots
/// of any kind than `earlier` — the snapshots cannot be from the same
/// registry in that order, and a silent partial subtraction would corrupt
/// every downstream epoch delta.
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& later,
                                             const MetricsSnapshot& earlier);

/// JSON document for a snapshot: an array of {name, kind, labels, value}
/// (histograms carry buckets/samples/sum). Stable ordering.
[[nodiscard]] Json snapshot_to_json(const MetricsSnapshot& snapshot);

/// Inverse of snapshot_to_json (tests, manifest round-trips). Returns
/// false and sets `*error` on malformed input.
bool snapshot_from_json(const Json& json, MetricsSnapshot* out,
                        std::string* error);

/// One "name{labels} value" line per metric (histograms print mean/p99).
void print_metrics(std::ostream& os, const MetricsSnapshot& snapshot);

}  // namespace lssim

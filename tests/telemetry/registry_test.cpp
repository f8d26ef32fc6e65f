// Tests for the metrics registry: handle stability, snapshot/delta
// semantics, log-scale histogram bucketing, and JSON round-trips.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace lssim {
namespace {

TEST(RegistryTest, CounterAddAndValue) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("requests");
  reg.add(c);
  reg.add(c, 41);
  EXPECT_EQ(reg.value(c), 42u);
}

TEST(RegistryTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricsRegistry reg;
  const CounterHandle a = reg.counter("hits", {{"node", "0"}});
  const CounterHandle b = reg.counter("hits", {{"node", "0"}});
  const CounterHandle other = reg.counter("hits", {{"node", "1"}});
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(a.index, other.index);
  reg.add(a, 3);
  reg.add(b, 4);
  EXPECT_EQ(reg.value(a), 7u);
  EXPECT_EQ(reg.value(other), 0u);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(RegistryTest, FullNameIncludesLabels) {
  MetricDesc desc{"cache.l2_fills", MetricKind::kCounter,
                  {{"node", "3"}, {"level", "2"}}, 0};
  EXPECT_EQ(desc.full_name(), "cache.l2_fills{node=3,level=2}");
  MetricDesc bare{"net.messages", MetricKind::kCounter, {}, 0};
  EXPECT_EQ(bare.full_name(), "net.messages");
}

TEST(RegistryTest, GaugeKeepsLatestValue) {
  MetricsRegistry reg;
  const GaugeHandle g = reg.gauge("exec_cycles");
  reg.set(g, 100);
  reg.set(g, -5);
  EXPECT_EQ(reg.value(g), -5);
}

TEST(HistogramTest, BucketOfIsLogScale) {
  EXPECT_EQ(HistogramData::bucket_of(0), 0);
  EXPECT_EQ(HistogramData::bucket_of(1), 0);
  EXPECT_EQ(HistogramData::bucket_of(2), 1);
  EXPECT_EQ(HistogramData::bucket_of(3), 1);
  EXPECT_EQ(HistogramData::bucket_of(4), 2);
  EXPECT_EQ(HistogramData::bucket_of(7), 2);
  EXPECT_EQ(HistogramData::bucket_of(8), 3);
  EXPECT_EQ(HistogramData::bucket_of(1024), 10);
  // Values beyond 2^31 saturate into the last bucket.
  EXPECT_EQ(HistogramData::bucket_of(std::uint64_t{1} << 40),
            HistogramData::kBuckets - 1);
  EXPECT_EQ(HistogramData::bucket_of(~std::uint64_t{0}),
            HistogramData::kBuckets - 1);
}

TEST(HistogramTest, ObserveTracksMeanAndPercentile) {
  HistogramData h;
  for (int i = 0; i < 99; ++i) h.observe(100);   // bucket 6
  h.observe(100000);                             // bucket 16
  EXPECT_EQ(h.samples, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), (99.0 * 100 + 100000) / 100.0);
  // The p50 sample sits in the [64,128) bucket; its upper edge is 127.
  EXPECT_EQ(h.percentile(0.5), 127u);
  // The outlier dominates the tail.
  EXPECT_GE(h.percentile(1.0), 100000u);
}

TEST(HistogramTest, EmptyIsSafe) {
  const HistogramData h;
  EXPECT_EQ(h.samples, 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.9), 0u);
}

TEST(RegistryTest, SnapshotIsSelfContained) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("events");
  reg.add(c, 7);
  const MetricsSnapshot snap = reg.snapshot();
  reg.add(c, 100);  // Does not retroactively change the snapshot.
  EXPECT_EQ(snap.counter_value("events"), 7u);
  EXPECT_EQ(reg.value(c), 107u);
}

TEST(RegistryTest, SnapshotDeltaSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("msgs");
  const GaugeHandle g = reg.gauge("depth");
  const HistogramHandle h = reg.histogram("lat");
  reg.add(c, 10);
  reg.set(g, 4);
  reg.observe(h, 100);
  const MetricsSnapshot before = reg.snapshot();
  reg.add(c, 5);
  reg.set(g, 9);
  reg.observe(h, 100);
  reg.observe(h, 2000);
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot delta = snapshot_delta(after, before);
  EXPECT_EQ(delta.counter_value("msgs"), 5u);
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0], 9);  // Instantaneous: later value.
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].samples, 2u);
  EXPECT_EQ(delta.histograms[0].sum, 2100u);
}

TEST(RegistryTest, DeltaThrowsWhenLaterSnapshotHasFewerSlots) {
  // Passing snapshots from different registries (or in the wrong order)
  // used to under- or over-subtract silently; now it throws.
  MetricsRegistry big;
  big.add(big.counter("a"), 1);
  big.add(big.counter("b"), 2);
  big.observe(big.histogram("h1"), 10);
  big.observe(big.histogram("h2"), 10);
  big.set(big.gauge("g1"), 1);
  big.set(big.gauge("g2"), 2);
  const MetricsSnapshot earlier = big.snapshot();

  MetricsRegistry small;
  small.add(small.counter("a"), 1);
  small.observe(small.histogram("h1"), 10);
  small.set(small.gauge("g1"), 1);
  EXPECT_THROW(snapshot_delta(small.snapshot(), earlier),
               std::invalid_argument);
  // The reverse order is the documented contract and still works.
  const MetricsSnapshot delta = snapshot_delta(earlier, small.snapshot());
  EXPECT_EQ(delta.counter_value("b"), 2u);
}

TEST(RegistryTest, DeltaToleratesMetricsRegisteredAfterEarlierSnapshot) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("a");
  reg.add(c, 2);
  const MetricsSnapshot before = reg.snapshot();
  const CounterHandle late = reg.counter("b");
  reg.add(late, 30);
  const MetricsSnapshot delta = snapshot_delta(reg.snapshot(), before);
  EXPECT_EQ(delta.counter_value("a"), 0u);
  EXPECT_EQ(delta.counter_value("b"), 30u);  // Kept as-is.
}

TEST(RegistryTest, CounterTotalSumsAcrossLabelSets) {
  MetricsRegistry reg;
  reg.add(reg.counter("hits", {{"node", "0"}}), 3);
  reg.add(reg.counter("hits", {{"node", "1"}}), 4);
  reg.add(reg.counter("other"), 100);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_total("hits"), 7u);
  EXPECT_EQ(snap.counter_value("hits{node=1}"), 4u);
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  MetricsRegistry reg;
  reg.add(reg.counter("c", {{"node", "2"}}), 123456789012345ull);
  reg.set(reg.gauge("g"), -17);
  const HistogramHandle h = reg.histogram("h");
  reg.observe(h, 0);
  reg.observe(h, 300);
  const MetricsSnapshot snap = reg.snapshot();

  const Json doc = snapshot_to_json(snap);
  std::string error;
  const Json parsed = Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  MetricsSnapshot back;
  ASSERT_TRUE(snapshot_from_json(parsed, &back, &error)) << error;

  EXPECT_EQ(back.counter_value("c{node=2}"), 123456789012345ull);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_EQ(back.gauges[0], -17);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].samples, 2u);
  EXPECT_EQ(back.histograms[0].sum, 300u);
  EXPECT_EQ(back.histograms[0].counts[HistogramData::bucket_of(300)], 1u);
}

TEST(RegistryTest, SnapshotFromJsonRejectsMalformedInput) {
  std::string error;
  MetricsSnapshot out;
  EXPECT_FALSE(snapshot_from_json(Json(5), &out, &error));
  EXPECT_FALSE(error.empty());

  const Json bad = Json::parse(R"([{"name":"x","kind":"mystery"}])", &error);
  error.clear();
  EXPECT_FALSE(snapshot_from_json(bad, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(RegistryTest, PrintMetricsListsEveryMetric) {
  MetricsRegistry reg;
  reg.add(reg.counter("alpha"), 1);
  reg.observe(reg.histogram("beta"), 64);
  std::ostringstream os;
  print_metrics(os, reg.snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha 1"), std::string::npos);
  EXPECT_NE(text.find("beta samples=1"), std::string::npos);
}

}  // namespace
}  // namespace lssim

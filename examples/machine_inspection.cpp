// Example: the simulator's introspection surface, the telemetry metrics
// registry, on one OLTP run under the LS protocol: access-latency
// histograms, per-epoch deltas taken with snapshot_delta, and counter
// totals folded over the per-node label sets.
#include <cstdio>
#include <vector>

#include "lssim.hpp"

namespace {

using namespace lssim;

void print_histogram(const char* title, const HistogramData& h) {
  std::printf("-- %s (%llu samples, mean %.0f cy, p50 <= %llu, p99 <= %llu)"
              " --\n",
              title, static_cast<unsigned long long>(h.samples), h.mean(),
              static_cast<unsigned long long>(h.percentile(0.5)),
              static_cast<unsigned long long>(h.percentile(0.99)));
  for (int b = 0; b < HistogramData::kBuckets; ++b) {
    const std::uint64_t count = h.counts[static_cast<std::size_t>(b)];
    if (count != 0) {
      std::printf("  [%7llu, %7llu)  %10llu\n", 1ull << b, 1ull << (b + 1),
                  static_cast<unsigned long long>(count));
    }
  }
}

}  // namespace

int main() {
  MachineConfig cfg = MachineConfig::oltp_default(ProtocolKind::kLs);
  cfg.l1 = CacheConfig{8 * 1024, 2, 32};
  cfg.l2 = CacheConfig{32 * 1024, 1, 32};
  cfg.telemetry.metrics = true;  // Live metrics registry.

  System sys(cfg);
  OltpParams params;
  params.txns_per_proc = 800;
  build_oltp(sys, params);

  // Epoch sampling: snapshot the registry every 500k cycles of issue
  // time and keep the deltas. (Any access observer also turns spin
  // parking off; results are the same either way.)
  constexpr Cycles kEpoch = 500000;
  struct Epoch {
    Cycles end;
    MetricsSnapshot delta;
  };
  std::vector<Epoch> epochs;
  MetricsSnapshot last = sys.telemetry().registry().snapshot();
  Cycles next_epoch = kEpoch;
  sys.add_access_observer(
      [&](NodeId, const AccessRequest&, Cycles issue, Cycles) {
        for (; issue >= next_epoch; next_epoch += kEpoch) {
          MetricsSnapshot now = sys.telemetry().registry().snapshot();
          epochs.push_back({next_epoch, snapshot_delta(now, last)});
          last = std::move(now);
        }
      });
  sys.run();

  const MetricsSnapshot snap = sys.telemetry().registry().snapshot();
  std::printf("OLTP under LS, %llu accesses in %llu cycles\n\n",
              static_cast<unsigned long long>(sys.stats().accesses),
              static_cast<unsigned long long>(sys.exec_time()));
  print_histogram("read latency", *snap.histogram("sys.read_latency"));
  std::printf("\n");
  print_histogram("write latency", *snap.histogram("sys.write_latency"));

  std::printf("\n-- epochs of %llu cycles (deltas) --\n",
              static_cast<unsigned long long>(kEpoch));
  std::printf("        end   accesses   messages  rd-misses  eliminated\n");
  for (const Epoch& e : epochs) {
    std::printf("%11llu %10llu %10llu %10llu %11llu\n",
                static_cast<unsigned long long>(e.end),
                static_cast<unsigned long long>(
                    e.delta.counter_total("sys.accesses")),
                static_cast<unsigned long long>(
                    e.delta.counter_total("net.messages")),
                static_cast<unsigned long long>(
                    e.delta.counter_total("coherence.read-miss")),
                static_cast<unsigned long long>(
                    e.delta.counter_total("coherence.local-write")));
  }

  // counter_total() folds the per-node label sets together.
  std::printf("\ntelemetry (%zu metrics):\n", snap.descs.size());
  std::printf("  coherence.read-miss   = %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_total("coherence.read-miss")));
  std::printf("  coherence.upgrade     = %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_total("coherence.upgrade")));
  std::printf("  coherence.local-write = %llu  (eliminated acquisitions)\n",
              static_cast<unsigned long long>(
                  snap.counter_total("coherence.local-write")));
  std::printf("  net.messages          = %llu\n",
              static_cast<unsigned long long>(
                  snap.counter_total("net.messages")));
  return 0;
}

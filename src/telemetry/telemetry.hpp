// The per-System telemetry bundle and the engine's one coherence-event
// sink: a metrics registry, a coherence-trace buffer, a tag-decision
// audit ring and a debugging event log, constructed from
// MachineConfig::telemetry.
//
// MemorySystem emits each coherence event once, through emit(); the sink
// hands it to every enabled consumer as kEventKinds
// (telemetry/coherence_event.hpp) directs. The engine holds a null
// Telemetry* when every pillar is off, so its hook is one branch. Other
// components (caches, directory, transport, System) cache `metrics()`,
// which is null when metrics are off.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/coherence_event.hpp"
#include "telemetry/coherence_trace.hpp"
#include "telemetry/registry.hpp"

namespace lssim {

class Telemetry {
 public:
  Telemetry() = default;
  explicit Telemetry(const TelemetryConfig& config)
      : metrics_enabled_(config.metrics),
        trace_(config.trace_capacity),
        audit_(config.audit_capacity),
        log_(config.event_log_capacity) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// True when any consumer is on.
  [[nodiscard]] bool enabled() const noexcept {
    return metrics_enabled_ || trace_.enabled() || audit_.enabled() ||
           log_.enabled();
  }

  /// Registers the per-node `coherence.<kind>` counters and the
  /// `ownership.latency{op=<kind>}` histograms of a `num_nodes` engine.
  /// The engine calls it after its caches, directory and transport
  /// registered theirs: registration order is snapshot order.
  void attach_engine(int num_nodes) {
    if (!metrics_enabled_) return;
    counters_.clear();
    for (int n = 0; n < num_nodes; ++n) {
      const MetricLabels labels{{"node", std::to_string(n)}};
      for (int k = 0; k < kNumCountedEventKinds; ++k) {
        counters_.push_back(registry_.counter(
            std::string("coherence.") + kEventKinds[k].name, labels));
      }
    }
    for (int k = 0; k < kNumCountedEventKinds; ++k) {
      if (kEventKinds[k].trace == TraceShape::kSpan) {
        latency_[k] = registry_.histogram("ownership.latency",
                                          {{"op", kEventKinds[k].name}});
      }
    }
  }

  /// The engine's one hook: routes `event` to every enabled consumer.
  void emit(const CoherenceEvent& event) {
    const EventKindInfo& kind = kind_info(event.kind);
    if (is_counted(event.kind)) {
      if (metrics_enabled_) {
        registry_.add(counters_[event.node * kNumCountedEventKinds +
                                static_cast<std::size_t>(event.kind)]);
        if (kind.trace == TraceShape::kSpan) {
          registry_.observe(latency_[static_cast<std::size_t>(event.kind)],
                            event.end - event.time);
        }
      }
      log_.record(event);
    }
    if (trace_.enabled()) {
      if (kind.trace == TraceShape::kSpan) {
        trace_.span(event.node, event.kind, event.block, event.time,
                    event.end);
      } else if (kind.trace == TraceShape::kInstant) {
        trace_.instant(event.node, event.kind, event.block, event.time);
      }
    }
    if (kind.audited) {
      audit_.record(event);
    }
  }

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_enabled_;
  }

  /// The registry, or null when metrics are disabled. Components must
  /// treat null as "skip the hook".
  [[nodiscard]] MetricsRegistry* metrics() noexcept {
    return metrics_enabled_ ? &registry_ : nullptr;
  }

  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const CoherenceTrace& coherence_trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const TagAuditLog& audit_log() const noexcept {
    return audit_;
  }
  [[nodiscard]] const EventLog& event_log() const noexcept { return log_; }

 private:
  bool metrics_enabled_ = false;
  MetricsRegistry registry_;
  CoherenceTrace trace_;
  TagAuditLog audit_;
  EventLog log_;
  /// Indexed node * kNumCountedEventKinds + kind.
  std::vector<CounterHandle> counters_;
  /// Indexed by kind; valid for the kSpan kinds.
  std::array<HistogramHandle, kNumCountedEventKinds> latency_{};
};

}  // namespace lssim

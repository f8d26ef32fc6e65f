// Capacity-bounded recording of coherence activity for timeline export.
//
// The Telemetry sink's first-N consumer: where the event log and the
// audit trail (last-N rings, telemetry/coherence_event.hpp) keep the end
// of a run, this buffer keeps the *first* N spans/instants so a whole
// workload opens as a contiguous timeline in ui.perfetto.dev. Spans carry
// begin/end cycles (request issue .. reply completion) for the global
// transactions — read miss, write miss, upgrade — and instants mark the
// protocol's point events (tag, detag, NotLS, local write, migrate);
// kEventKinds gives each kind's shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "telemetry/coherence_event.hpp"

namespace lssim {

struct TraceSpan {
  Cycles begin = 0;
  Cycles end = 0;
  Addr block = 0;
  NodeId node = kInvalidNode;
  ProtoEventKind kind = ProtoEventKind::kReadMiss;
};

struct TraceInstant {
  Cycles time = 0;
  Addr block = 0;
  NodeId node = kInvalidNode;
  ProtoEventKind kind = ProtoEventKind::kReadMiss;
};

class CoherenceTrace {
 public:
  explicit CoherenceTrace(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void span(NodeId node, ProtoEventKind kind, Addr block, Cycles begin,
            Cycles end) {
    if (spans_.size() + instants_.size() >= capacity_) {
      dropped_ += 1;
      return;
    }
    spans_.push_back(TraceSpan{begin, end, block, node, kind});
  }

  void instant(NodeId node, ProtoEventKind kind, Addr block, Cycles time) {
    if (spans_.size() + instants_.size() >= capacity_) {
      dropped_ += 1;
      return;
    }
    instants_.push_back(TraceInstant{time, block, node, kind});
  }

  [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<TraceInstant>& instants() const noexcept {
    return instants_;
  }
  /// Events discarded once the capacity was reached (never silently: the
  /// exporter records this in the trace metadata).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::uint64_t dropped_ = 0;
};

}  // namespace lssim

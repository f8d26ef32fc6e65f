// The engine's coherence-event record, the one table of which consumer
// takes which kind, and the last-N ring that keeps recent events.
//
// MemorySystem (core/protocol.cpp) describes each protocol event it
// applies as one CoherenceEvent and emits it once to the Telemetry sink
// (telemetry/telemetry.hpp). Every observability record derives from
// that value: the per-node `coherence.*` counters, the ownership-latency
// histograms, the Perfetto trace, the tag-decision audit and the
// debugging event log. kEventKinds says which of them takes each kind.
//
// The ring (EventLog) backs both last-N consumers: the event log and the
// audit trail (telemetry/audit.hpp). Disabled (capacity 0) it records
// nothing; enabled it keeps the last N events, and dump() renders them
// like:
//   @12340      P1  upgrade     blk 0x000040  dir Dirty       [tagged]
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

#include "core/coherence_policy.hpp"
#include "core/directory.hpp"
#include "sim/types.hpp"

namespace lssim {

enum class ProtoEventKind : std::uint8_t {
  kReadMiss,    ///< Global read transaction.
  kWriteMiss,   ///< Global write-miss transaction.
  kUpgrade,     ///< Ownership acquisition on a Shared copy.
  kLocalWrite,  ///< Store satisfied in LStemp: eliminated acquisition.
  kTag,         ///< Block tagged (LS bit / migratory).
  kDetag,       ///< Block de-tagged.
  kMigrate,     ///< Exclusive read reply (data migrates).
  kNotLs,       ///< Foreign access broke an LStemp copy.
  kWriteback,   ///< Dirty replacement.
  kReplHint,    ///< Clean/LStemp replacement.
  kTagProgress,    ///< Tag hysteresis counter moved, no threshold crossed.
  kDetagProgress,  ///< De-tag hysteresis counter moved, likewise.
};
inline constexpr int kNumEventKinds = 12;
/// Kinds with a per-node `coherence.<kind>` counter: every kind before
/// kTagProgress.
inline constexpr int kNumCountedEventKinds = 10;

/// How the Perfetto trace records a kind.
enum class TraceShape : std::uint8_t {
  kNone,
  kSpan,     ///< Issue..completion; also an ownership.latency histogram.
  kInstant,  ///< A point event.
};

struct EventKindInfo {
  const char* name;
  TraceShape trace;
  bool audited;  ///< Part of the tag-decision audit trail.
};

/// Indexed by ProtoEventKind. Counted kinds (the first
/// kNumCountedEventKinds) also go to the metrics and the event log.
inline constexpr std::array<EventKindInfo, kNumEventKinds> kEventKinds = {{
    {"read-miss", TraceShape::kSpan, false},
    {"write-miss", TraceShape::kSpan, false},
    {"upgrade", TraceShape::kSpan, false},
    {"local-write", TraceShape::kInstant, false},
    {"tag", TraceShape::kInstant, true},
    {"detag", TraceShape::kInstant, true},
    {"migrate", TraceShape::kInstant, false},
    {"notls", TraceShape::kInstant, false},
    {"writeback", TraceShape::kNone, false},
    {"repl-hint", TraceShape::kNone, false},
    {"tag-progress", TraceShape::kNone, true},
    {"detag-progress", TraceShape::kNone, true},
}};

[[nodiscard]] constexpr const EventKindInfo& kind_info(
    ProtoEventKind k) noexcept {
  return kEventKinds[static_cast<std::size_t>(k)];
}
[[nodiscard]] constexpr const char* to_string(ProtoEventKind k) noexcept {
  return kind_info(k).name;
}
[[nodiscard]] constexpr bool is_counted(ProtoEventKind k) noexcept {
  return static_cast<int>(k) < kNumCountedEventKinds;
}

/// One protocol event, as the engine applied it.
struct CoherenceEvent {
  Cycles time = 0;  ///< Event time; issue time of a transaction.
  Cycles end = 0;   ///< Completion of a transaction (kSpan kinds only).
  Addr block = 0;
  /// Requester, NotLS owner, evicting node, or the node whose access
  /// caused a tag decision.
  NodeId node = kInvalidNode;
  ProtoEventKind kind = ProtoEventKind::kReadMiss;
  DirState dir_state = DirState::kUncached;  ///< Home entry after the event.
  bool tagged = false;                       ///< Tag bit after the event.
  /// The rule behind an audited kind.
  TagReason reason = TagReason::kLsSequence;
  /// §5.5 hysteresis counters after the event.
  std::uint8_t tag_progress = 0;
  std::uint8_t detag_progress = 0;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 0) : capacity_(capacity) {
    if (capacity_ > 0) ring_.reserve(capacity_);
  }

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  void record(const CoherenceEvent& event) {
    if (!enabled()) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_] = event;
      wrapped_ = true;
    }
    next_ = (next_ + 1) % capacity_;
    total_ += 1;
  }

  /// Number of events ever recorded (may exceed capacity).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Retained events (min(total, capacity)).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

  /// Applies `fn` to the retained events, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t start = wrapped_ ? next_ : 0;
    for (std::size_t i = start; i < ring_.size(); ++i) fn(ring_[i]);
    for (std::size_t i = 0; i < start; ++i) fn(ring_[i]);
  }

  /// Renders the retained events, one per line.
  void dump(std::ostream& os) const {
    for_each([&os](const CoherenceEvent& e) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "@%-10llu P%-2d %-11s blk 0x%06llx  dir %-10s%s",
                    static_cast<unsigned long long>(e.time),
                    static_cast<int>(e.node), to_string(e.kind),
                    static_cast<unsigned long long>(e.block),
                    to_string(e.dir_state), e.tagged ? "  [tagged]" : "");
      os << line << "\n";
    });
  }

 private:
  std::size_t capacity_;
  std::vector<CoherenceEvent> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t total_ = 0;
};

}  // namespace lssim

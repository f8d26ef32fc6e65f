// Access-trace capture and replay.
//
// The paper's methodology is execution-driven, but trace-driven replay is
// the standard way to (a) archive a workload's access stream, (b) rerun
// it against many protocol/cache configurations quickly, and (c) debug
// protocol behaviour on a fixed input. A TraceRecorder tees every access
// a System executes into an in-memory trace (optionally saved to a
// compact binary file); replay_trace() drives a fresh MemorySystem with
// it, and trace/replay_compare.hpp builds the capture-once/replay-many
// protocol-comparison engine on top. Replay is timing-faithful in
// program order per processor but, by construction, cannot model timing
// feedback (a stalled lock acquire still spins the recorded number of
// times) — the classic trace-driven limitation the paper's
// execution-driven setup avoids. Replay is therefore used for protocol
// sweeps, state exploration and regression tests, not for the headline
// figures (see docs/PERFORMANCE.md "Capture once, replay many").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "sim/types.hpp"
#include "trace/config_hash.hpp"

namespace lssim {

/// One recorded access. Version-2 records carry the full AccessRequest
/// payload (store value, CAS expected value, access-site id) so a replay
/// reproduces memory values and ILS predictor training exactly, and a
/// 16-bit node id so machines beyond 255 nodes are representable.
struct TraceRecord {
  Addr addr = 0;
  Cycles issue_gap = 0;  ///< Cycles of compute since the previous access.
  std::uint64_t wdata = 0;     ///< Store value / addend / CAS desired.
  std::uint64_t expected = 0;  ///< CAS expected value.
  std::uint32_t site = 0;      ///< Access-site id (ILS predictor input).
  NodeId node = 0;
  std::uint8_t op = 0;    ///< MemOpKind.
  std::uint8_t size = 4;
  std::uint8_t tag = 0;   ///< StreamTag.

  [[nodiscard]] bool operator==(const TraceRecord&) const = default;
};

/// Capture provenance stored in the version-2 file header.
struct TraceMeta {
  /// trace_config_hash() of the capture machine's protocol-insensitive
  /// configuration. 0 = unknown (a version-1 file or a hand-built
  /// trace): compatibility is not checked.
  std::uint64_t config_hash = 0;
  /// Config-hash schema the hash was computed under (the format's minor
  /// version; see trace/config_hash.hpp). Files older than v2.1 load as
  /// 0 — the pre-interconnect-seam schema, whose captures could only
  /// have run on the directory network and therefore only replay there.
  std::uint32_t hash_version = kTraceConfigHashVersion;
  std::uint64_t seed = 0;
  std::string workload;  ///< Informational; empty when unknown.
  /// Per-node compute cycles after the node's last access completed
  /// (e.g. a trailing proc.compute()). Without these, replay would
  /// under-account busy time and exec_time for workloads that end on
  /// compute. Empty = all zero.
  std::vector<Cycles> final_gaps;

  [[nodiscard]] bool operator==(const TraceMeta&) const = default;
};

class Trace {
 public:
  void append(const TraceRecord& record) { records_.push_back(record); }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  [[nodiscard]] TraceMeta& meta() noexcept { return meta_; }
  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }

  /// Binary serialization (little-endian, versioned header). save()
  /// always writes the current version (v2.1: the v2 layout plus the
  /// config-hash schema version); load() additionally accepts plain v2
  /// files (hash_version loads as 0) and version-1 files (whose records
  /// carry no data payloads — their wdata loads as the historical
  /// placeholder value 1 — and no metadata, so config compatibility is
  /// unchecked). load() throws std::runtime_error on a truncated file
  /// and on a record whose op, size or tag is out of range (the message
  /// names the field and the record index); node ids are checked against
  /// the replay machine (ReplayCompareEngine).
  void save(std::ostream& os) const;
  [[nodiscard]] static Trace load(std::istream& is);

  [[nodiscard]] bool operator==(const Trace&) const = default;

 private:
  std::vector<TraceRecord> records_;
  TraceMeta meta_;
};

/// Statistics from replaying a trace.
struct ReplayResult {
  Cycles total_cycles = 0;       ///< Sum over processors of local time.
  std::uint64_t accesses = 0;
};

/// Replays `trace` against a fresh MemorySystem built from `config`.
/// Per-processor program order is preserved; accesses are interleaved by
/// per-processor virtual time exactly like the live scheduler. Thin
/// wrapper over ReplayCompareEngine (trace/replay_compare.hpp), kept for
/// single-configuration replays; throws TraceConfigMismatch when the
/// trace records a config hash incompatible with `config`.
ReplayResult replay_trace(const Trace& trace, const MachineConfig& config,
                          Stats& stats);

}  // namespace lssim

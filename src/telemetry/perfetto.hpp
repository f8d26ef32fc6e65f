// Chrome trace-event JSON export (the format ui.perfetto.dev and
// chrome://tracing open directly).
//
// Mapping: one *process* per protocol run (pid = run index, named after
// the protocol), one *thread* per node (tid = node id, named "node N").
// Global coherence transactions become complete ("X") duration events
// whose ts/dur are the request/reply cycles; point events (tag, detag,
// NotLS, local write, migrate) become thread-scoped instants ("i").
// Timestamps are simulated cycles written as microseconds (1 cycle ==
// 1 us), so Perfetto's time axis reads directly in cycles.
//
// Schema (docs/OBSERVABILITY.md has the full description):
//   {"displayTimeUnit":"ms",
//    "otherData": {...},
//    "traceEvents":[
//      {"name":"read-miss","cat":"coherence","ph":"X","ts":120,"dur":220,
//       "pid":0,"tid":1,"args":{"block":"0x000040"}}, ...]}
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/coherence_event.hpp"
#include "telemetry/coherence_trace.hpp"

namespace lssim {

/// One named timeline process for the exporter (typically one protocol
/// run). `trace` or `log` may be null; log events export as instants.
struct TraceProcess {
  std::string name;
  const CoherenceTrace* trace = nullptr;
  const EventLog* log = nullptr;
};

/// Streams the document for `processes` to `os` (newline-terminated),
/// event by event without building a document tree. Event nodes are
/// below kMaxNodes; the export throws std::out_of_range on any other.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceProcess>& processes);

/// Convenience: a single-process trace.
void write_chrome_trace(std::ostream& os, const std::string& name,
                        const CoherenceTrace& trace);

/// One parsed trace event (enough to reconstruct spans/instants; used by
/// the round-trip tests and any downstream tooling).
struct ChromeTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;   ///< "X" complete, "i" instant, "M" metadata.
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  int pid = 0;
  int tid = 0;
  std::string arg_block;  ///< args.block when present.
};

/// Parses a Chrome trace-event JSON document back into events. Returns
/// false and sets `*error` on malformed input.
bool parse_chrome_trace(std::string_view text,
                        std::vector<ChromeTraceEvent>* out,
                        std::string* error);

}  // namespace lssim

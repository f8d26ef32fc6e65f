// Workload factory + result formatting for the lssim_run driver.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/options.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/coherence_trace.hpp"
#include "telemetry/registry.hpp"
#include "workloads/harness.hpp"

namespace lssim {

class HeartbeatEmitter;  // exec/heartbeat.hpp

/// True if `name` names a workload the driver can build.
[[nodiscard]] bool driver_knows_workload(const std::string& name);

/// A --set value that does not parse as its parameter's type, or lies
/// outside its range: a usage error (lssim_run exits 2), unlike an
/// unknown workload or parameter name.
class WorkloadParamError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Builds the WorkloadBuilder for `options.workload` with its --set
/// parameters applied; throws WorkloadParamError on a malformed or
/// out-of-range value and std::invalid_argument on unknown workloads or
/// parameters. Useful for callers that own their System (tracing).
WorkloadBuilder make_driver_builder(const DriverOptions& options);

/// Runs `options.workload` under `kind`; throws std::invalid_argument on
/// unknown workloads, bad parameters or an invalid machine (System
/// validates it before building anything).
RunResult run_driver_workload(const DriverOptions& options,
                              ProtocolKind kind);

/// One protocol run plus the telemetry captured from it (both empty/
/// disabled unless the corresponding --*-out flag was given).
struct DriverRun {
  RunResult result;
  MetricsSnapshot metrics;
  CoherenceTrace trace{0};
  /// --audit-out: the tag-decision audit ring captured from the run
  /// (empty/disabled unless auditing was enabled).
  TagAuditLog audit{0};
  /// --check-invariants: total violations and the retained messages
  /// (capped; see check::CheckerOptions::max_violations). Zero/empty
  /// when checking is off or the run was clean.
  std::uint64_t invariant_violations = 0;
  std::vector<std::string> invariant_messages;
};

/// As run_driver_workload, additionally enabling telemetry according to
/// `options` and capturing the metrics snapshot, coherence trace and
/// audit ring. `heartbeat` (optional) receives per-phase wall time and
/// one unit_done per completed run.
DriverRun run_driver_workload_captured(const DriverOptions& options,
                                       ProtocolKind kind,
                                       HeartbeatEmitter* heartbeat = nullptr);

/// Runs the full `options.protocols` × `options.directories` ×
/// `options.interconnects` matrix (protocol-major, interconnect
/// innermost), fanned out across up to `options.jobs` host threads
/// (0 = all cores). Results are ordered by that matrix regardless of
/// completion order, so reports, manifests and Perfetto exports are
/// byte-identical to a serial sweep. `heartbeat` (optional,
/// thread-safe) observes progress across workers.
std::vector<DriverRun> run_driver_workloads_captured(
    const DriverOptions& options, HeartbeatEmitter* heartbeat = nullptr);

/// Outcome of a capture-once / replay-many driver invocation.
struct ReplayDriverOutcome {
  /// Replayed results, protocols × directories matrix order (the same
  /// order run_driver_workloads_captured produces).
  std::vector<RunResult> results;
  /// --replay-crosscheck: the live executed result per matrix cell
  /// (empty otherwise).
  std::vector<RunResult> executed;
  /// --replay-crosscheck: one "label: field: executed N, replayed M"
  /// line per diverging stat; empty when every cell agrees.
  std::vector<std::string> divergences;
  std::size_t trace_accesses = 0;  ///< Length of the driving trace.
};

/// Capture-once / replay-many driver path (--replay-compare & friends):
/// executes the workload once (or loads --replay-from), then drives the
/// protocols × directories matrix by replaying the captured stream
/// across up to options.jobs threads. Saves the trace to
/// --capture-trace when requested. Throws TraceConfigMismatch when a
/// loaded trace's config hash does not match the machine, and the usual
/// std::invalid_argument for bad workloads/configs.
ReplayDriverOutcome run_driver_replay(const DriverOptions& options);

/// Writes the requested artifact files (--metrics-out, --perfetto-out,
/// --manifest-out, --latency-out, --audit-out). Returns false and sets
/// `*error` when any output stream fails; artifacts already written stay
/// on disk.
bool write_driver_artifacts(const DriverOptions& options,
                            const std::vector<DriverRun>& runs,
                            double wall_seconds, std::string* error);

/// Prints one or more results in the requested format. For kText with
/// several results, values are also shown normalized to the first.
void print_driver_results(std::ostream& os, const DriverOptions& options,
                          const std::vector<RunResult>& results);

}  // namespace lssim

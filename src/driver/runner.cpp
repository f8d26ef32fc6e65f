#include "driver/runner.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <set>
#include <stdexcept>

#include "check/invariants.hpp"
#include "exec/heartbeat.hpp"
#include "exec/parallel_executor.hpp"
#include "stats/report.hpp"
#include "telemetry/latency_report.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/perfetto.hpp"
#include "trace/replay_compare.hpp"

#include "workloads/cholesky.hpp"
#include "workloads/lu.hpp"
#include "workloads/micro.hpp"
#include "workloads/mp3d.hpp"
#include "workloads/oltp.hpp"
#include "workloads/stencil.hpp"
#include "workloads/radix.hpp"

namespace lssim {
namespace {

class ParamReader {
 public:
  explicit ParamReader(const std::map<std::string, std::string>& params)
      : params_(params) {}

  // Counts and sizes: a whole number in [0, INT_MAX].
  void get(const char* key, int* out) {
    const std::string* text = consume(key);
    if (text == nullptr) return;
    int value = 0;
    if (!parse_whole(*text, &value) || value < 0) {
      reject(key, *text, "a whole number from 0 to 2147483647");
    }
    *out = value;
  }
  // Fractions: a finite number in [0, 1].
  void get(const char* key, double* out) {
    const std::string* text = consume(key);
    if (text == nullptr) return;
    double value = 0;
    if (!parse_whole(*text, &value) || !(value >= 0.0 && value <= 1.0)) {
      reject(key, *text, "a number from 0 to 1");
    }
    *out = value;
  }
  // Seeds and word counts; Cycles is an alias of std::uint64_t, so one
  // overload serves both.
  void get(const char* key, std::uint64_t* out) {
    const std::string* text = consume(key);
    if (text == nullptr) return;
    if (!parse_whole(*text, out)) {
      reject(key, *text, "a whole number from 0 to 18446744073709551615");
    }
  }

  /// Throws if any --set key was not consumed by the chosen workload.
  void check_all_consumed() const {
    for (const auto& [key, value] : params_) {
      if (consumed_.find(key) == consumed_.end()) {
        throw std::invalid_argument("unknown workload parameter: " + key);
      }
    }
  }

 private:
  const std::string* consume(const char* key) {
    const auto it = params_.find(key);
    if (it == params_.end()) return nullptr;
    consumed_.insert(key);
    return &it->second;
  }
  [[noreturn]] static void reject(const char* key, const std::string& text,
                                  const char* expected) {
    throw WorkloadParamError("bad value for workload parameter " +
                             std::string(key) + ": '" + text +
                             "' (expected " + expected + ")");
  }

  const std::map<std::string, std::string>& params_;
  std::set<std::string> consumed_;
};

}  // namespace

bool driver_knows_workload(const std::string& name) {
  return name == "mp3d" || name == "cholesky" || name == "lu" ||
         name == "oltp" || name == "radix" || name == "stencil" ||
         name == "pingpong" || name == "private" || name == "readmostly";
}

WorkloadBuilder make_driver_builder(const DriverOptions& options) {
  ParamReader reader(options.params);
  WorkloadBuilder build;

  if (options.workload == "mp3d") {
    Mp3dParams p;
    reader.get("particles", &p.particles);
    reader.get("steps", &p.steps);
    reader.get("seed", &p.seed);
    build = [p](System& sys) { build_mp3d(sys, p); };
  } else if (options.workload == "cholesky") {
    CholeskyParams p;
    reader.get("n", &p.n);
    reader.get("bandwidth", &p.bandwidth);
    reader.get("successors", &p.successors);
    reader.get("window", &p.window);
    reader.get("locality", &p.locality);
    reader.get("seed", &p.seed);
    build = [p](System& sys) { build_cholesky(sys, p); };
  } else if (options.workload == "lu") {
    LuParams p;
    reader.get("n", &p.n);
    reader.get("seed", &p.seed);
    build = [p](System& sys) { build_lu(sys, p); };
  } else if (options.workload == "oltp") {
    OltpParams p;
    reader.get("branches", &p.branches);
    reader.get("accounts", &p.accounts);
    reader.get("txns_per_proc", &p.txns_per_proc);
    reader.get("lookup_fraction", &p.lookup_fraction);
    reader.get("hot_accounts", &p.hot_accounts);
    reader.get("think_cycles", &p.think_cycles);
    reader.get("seed", &p.seed);
    if (const std::string problem = p.validate(options.machine.num_nodes);
        !problem.empty()) {
      throw WorkloadParamError("bad oltp parameters: " + problem);
    }
    build = [p](System& sys) { build_oltp(sys, p); };
  } else if (options.workload == "radix") {
    RadixParams p;
    reader.get("keys", &p.keys);
    reader.get("radix_bits", &p.radix_bits);
    reader.get("key_bits", &p.key_bits);
    reader.get("seed", &p.seed);
    build = [p](System& sys) { build_radix(sys, p); };
  } else if (options.workload == "stencil") {
    StencilParams p;
    reader.get("width", &p.width);
    reader.get("height", &p.height);
    reader.get("sweeps", &p.sweeps);
    reader.get("seed", &p.seed);
    build = [p](System& sys) { build_stencil(sys, p); };
  } else if (options.workload == "pingpong") {
    PingPongParams p;
    reader.get("rounds", &p.rounds);
    reader.get("counters", &p.counters);
    reader.get("sync", &p.sync);
    build = [p](System& sys) { build_pingpong(sys, p); };
  } else if (options.workload == "private") {
    PrivateRmwParams p;
    reader.get("words_per_proc", &p.words_per_proc);
    reader.get("sweeps", &p.sweeps);
    reader.get("sync", &p.sync);
    build = [p](System& sys) { build_private_rmw(sys, p); };
  } else if (options.workload == "readmostly") {
    ReadMostlyParams p;
    reader.get("words", &p.words);
    reader.get("rounds", &p.rounds);
    reader.get("sync", &p.sync);
    build = [p](System& sys) { build_read_mostly(sys, p); };
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  reader.check_all_consumed();
  return build;
}

RunResult run_driver_workload(const DriverOptions& options,
                              ProtocolKind kind) {
  MachineConfig cfg = options.machine;
  cfg.protocol.kind = kind;
  return run_experiment(cfg, make_driver_builder(options), options.seed);
}

namespace {

/// Telemetry configuration implied by the output flags: metrics whenever
/// a metrics, manifest or latency file is requested, tracing whenever a
/// trace file is, auditing whenever an audit file is (1M-record default
/// capacities for both rings).
TelemetryConfig telemetry_for(const DriverOptions& options) {
  TelemetryConfig t;
  t.metrics = !options.metrics_out.empty() ||
              !options.manifest_out.empty() || !options.latency_out.empty();
  t.trace_capacity = options.trace_capacity;
  if (t.trace_capacity == 0 && !options.perfetto_out.empty()) {
    t.trace_capacity = std::size_t{1} << 20;
  }
  t.audit_capacity = options.audit_capacity;
  if (t.audit_capacity == 0 && !options.audit_out.empty()) {
    t.audit_capacity = std::size_t{1} << 20;
  }
  return t;
}

}  // namespace

DriverRun run_driver_workload_captured(const DriverOptions& options,
                                       ProtocolKind kind,
                                       HeartbeatEmitter* heartbeat) {
  MachineConfig cfg = options.machine;
  cfg.protocol.kind = kind;
  cfg.telemetry = telemetry_for(options);
  DriverRun run;
  WorkloadBuilder builder;
  {
    const PhaseTimer timer(heartbeat, "build");
    builder = make_driver_builder(options);
  }
  {
    const PhaseTimer timer(heartbeat, "simulate");
    run.result = run_experiment(
        cfg, std::move(builder), options.seed, [&run](System& sys) {
          if (sys.telemetry().metrics_enabled()) {
            run.metrics = sys.telemetry().registry().snapshot();
          }
          run.trace = sys.telemetry().coherence_trace();
          run.audit = sys.telemetry().audit_log();
          if (const check::InvariantChecker* c = sys.invariant_checker()) {
            run.invariant_violations = c->violation_count();
            run.invariant_messages = c->messages();
          }
        });
  }
  if (heartbeat != nullptr) {
    heartbeat->unit_done(run.result.accesses);
  }
  return run;
}

std::vector<DriverRun> run_driver_workloads_captured(
    const DriverOptions& options, HeartbeatEmitter* heartbeat) {
  // Surface workload/parameter errors before any worker starts (and
  // build each task's own builder inside the task — the ownership rule
  // at the executor seam: nothing mutable is shared between runs).
  (void)make_driver_builder(options);
  // Protocol-major matrix, interconnect innermost: for --directories a,b
  // --interconnects x,y the runs come out as p0@a@x, p0@a@y, p0@b@x, ...
  // With a single directory and a single interconnect this degenerates
  // to the plain per-protocol sweep.
  const std::size_t dirs = std::max<std::size_t>(1, options.directories.size());
  const std::size_t nets =
      std::max<std::size_t>(1, options.interconnects.size());
  return parallel_map<DriverRun>(
      options.protocols.size() * dirs * nets, options.jobs,
      [&options, heartbeat, dirs, nets](std::size_t i) {
        DriverOptions task = options;
        if (!options.directories.empty()) {
          task.machine.directory_scheme =
              options.directories[(i / nets) % dirs];
        }
        if (!options.interconnects.empty()) {
          task.machine.interconnect = options.interconnects[i % nets];
        }
        return run_driver_workload_captured(
            task, options.protocols[i / (dirs * nets)], heartbeat);
      });
}

namespace {

/// Writes one artifact via `emit` to `path` ("-" = stdout), with an
/// explicit flush-and-check so mid-write failures (full disk, closed
/// pipe) surface as errors rather than truncated files.
template <typename Emit>
bool write_artifact(const std::string& path, const char* what, Emit&& emit,
                    std::string* error) {
  if (path == "-") {
    emit(std::cout);
    std::cout.flush();
    if (!std::cout) {
      *error = std::string("failed writing ") + what + " to stdout";
      return false;
    }
    return true;
  }
  std::ofstream os(path);
  if (!os) {
    *error = std::string("cannot open ") + path + " for " + what;
    return false;
  }
  emit(os);
  os.flush();
  if (!os) {
    *error = std::string("failed writing ") + what + " to " + path;
    return false;
  }
  return true;
}

/// Label for one run in artifacts and reports: the protocol name alone
/// for single-directory invocations (matching the pre-matrix driver
/// byte-for-byte), "Protocol@organisation" when sweeping several
/// directories, with "@transport" appended when sweeping interconnects.
std::string run_label(const DriverOptions& options, const RunResult& r) {
  std::string label = to_string(r.protocol);
  if (options.directories.size() > 1) {
    label += '@';
    label += to_string(r.directory);
  }
  if (options.interconnects.size() > 1) {
    label += '@';
    label += to_string(r.interconnect);
  }
  return label;
}

}  // namespace

ReplayDriverOutcome run_driver_replay(const DriverOptions& options) {
  // The capture (or loaded-trace) machine: first matrix cell, which
  // parse_driver_args also makes the machine's protocol, organisation
  // and transport. Replay only re-runs the protocol layer, so which cell
  // captures is irrelevant for feedback-insensitive workloads and
  // documented as the first cell otherwise.
  const MachineConfig& base = options.machine;
  const std::string problem = base.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("invalid machine configuration: " + problem);
  }

  ReplayDriverOutcome outcome;
  Trace trace;
  if (!options.replay_from.empty()) {
    std::ifstream is(options.replay_from, std::ios::binary);
    if (!is) {
      throw std::runtime_error("cannot open trace file: " +
                               options.replay_from);
    }
    trace = Trace::load(is);
  } else {
    trace = capture_trace(base, make_driver_builder(options), options.seed,
                          options.workload)
                .trace;
  }
  if (!options.capture_trace_out.empty()) {
    std::ofstream os(options.capture_trace_out, std::ios::binary);
    if (!os) {
      throw std::runtime_error("cannot open " + options.capture_trace_out +
                               " for the captured trace");
    }
    trace.save(os);
    os.flush();
    if (!os) {
      throw std::runtime_error("failed writing trace to " +
                               options.capture_trace_out);
    }
  }
  outcome.trace_accesses = trace.size();

  const ReplayCompareEngine engine(trace, base);
  outcome.results =
      engine.replay_matrix(options.protocols, options.directories,
                           options.jobs);

  if (options.replay_crosscheck) {
    // Ground truth: execute every cell live (same matrix, same fan-out)
    // and diff each replayed RunResult against it field by field.
    const std::size_t dirs =
        std::max<std::size_t>(1, options.directories.size());
    outcome.executed = parallel_map<RunResult>(
        options.protocols.size() * dirs, options.jobs,
        [&options, &base, dirs](std::size_t i) {
          MachineConfig cfg = base;
          cfg.protocol.kind = options.protocols[i / dirs];
          if (!options.directories.empty()) {
            cfg.directory_scheme = options.directories[i % dirs];
          }
          return run_experiment(cfg, make_driver_builder(options),
                                options.seed);
        });
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      const std::string label = run_label(options, outcome.results[i]);
      for (const std::string& diff :
           compare_replay(outcome.executed[i], outcome.results[i])) {
        outcome.divergences.push_back(label + ": " + diff);
      }
    }
  }
  return outcome;
}

bool write_driver_artifacts(const DriverOptions& options,
                            const std::vector<DriverRun>& runs,
                            double wall_seconds, std::string* error) {
  if (!options.metrics_out.empty()) {
    Json::Array documents;
    documents.reserve(runs.size());
    for (const DriverRun& run : runs) {
      Json::Object entry;
      entry.emplace_back("protocol", Json(to_string(run.result.protocol)));
      entry.emplace_back("directory",
                         Json(to_string(run.result.directory)));
      entry.emplace_back("interconnect",
                         Json(to_string(run.result.interconnect)));
      entry.emplace_back("metrics", snapshot_to_json(run.metrics));
      documents.emplace_back(std::move(entry));
    }
    const Json doc{std::move(documents)};
    const bool ok = write_artifact(
        options.metrics_out, "metrics",
        [&doc](std::ostream& os) {
          doc.write(os, 0);
          os << "\n";
        },
        error);
    if (!ok) return false;
  }
  if (!options.perfetto_out.empty()) {
    std::vector<TraceProcess> processes;
    processes.reserve(runs.size());
    for (const DriverRun& run : runs) {
      processes.push_back(
          TraceProcess{run_label(options, run.result), &run.trace, nullptr});
    }
    const bool ok = write_artifact(
        options.perfetto_out, "trace",
        [&processes](std::ostream& os) { write_chrome_trace(os, processes); },
        error);
    if (!ok) return false;
  }
  if (!options.latency_out.empty()) {
    std::vector<LatencyReportRun> entries;
    entries.reserve(runs.size());
    for (const DriverRun& run : runs) {
      entries.push_back(
          LatencyReportRun{run_label(options, run.result), &run.metrics});
    }
    const Json doc =
        latency_report_to_json(options.workload, options.seed, entries);
    const bool ok = write_artifact(
        options.latency_out, "latency report",
        [&doc](std::ostream& os) {
          doc.write(os, 0);
          os << "\n";
        },
        error);
    if (!ok) return false;
  }
  if (!options.audit_out.empty()) {
    const bool ok = write_artifact(
        options.audit_out, "audit trail",
        [&runs, &options](std::ostream& os) {
          for (const DriverRun& run : runs) {
            write_audit_jsonl(os, run.audit,
                              run_label(options, run.result));
          }
        },
        error);
    if (!ok) return false;
  }
  if (!options.manifest_out.empty()) {
    RunManifest manifest;
    manifest.workload = options.workload;
    manifest.seed = options.seed;
    manifest.params = options.params;
    manifest.machine = options.machine;
    manifest.wall_seconds = wall_seconds;
    manifest.runs.reserve(runs.size());
    for (const DriverRun& run : runs) {
      manifest.runs.push_back(
          RunManifest::ProtocolRun{run.result, run.metrics});
    }
    const bool ok = write_artifact(
        options.manifest_out, "manifest",
        [&manifest](std::ostream& os) { write_manifest(os, manifest); },
        error);
    if (!ok) return false;
  }
  return true;
}

namespace {

void print_text(std::ostream& os, const DriverOptions& options,
                const std::vector<RunResult>& results) {
  const RunResult& base = results.front();
  const bool multi_dir = options.directories.size() > 1;
  const bool multi_net = options.interconnects.size() > 1;
  // Label column widens with each swept axis; the single-axis widths
  // reproduce the pre-matrix / pre-seam headers byte-for-byte.
  std::string head = "protocol";
  if (multi_dir) head += "@directory";
  if (multi_net) head += "@interconnect";
  const int label_width = static_cast<int>(head.size()) + 1;
  os << head << "  "
     << " exec-cycles        busy  read-stall write-stall"
        "   messages  rd-misses  eliminated";
  if (results.size() > 1) os << "   (norm exec)";
  os << "\n";
  for (const RunResult& r : results) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-*s %12llu %11llu %11llu %11llu %10llu %10llu %11llu",
                  label_width, run_label(options, r).c_str(),
                  static_cast<unsigned long long>(r.exec_time),
                  static_cast<unsigned long long>(r.time.busy),
                  static_cast<unsigned long long>(r.time.read_stall),
                  static_cast<unsigned long long>(r.time.write_stall),
                  static_cast<unsigned long long>(r.traffic_total),
                  static_cast<unsigned long long>(r.global_read_misses),
                  static_cast<unsigned long long>(
                      r.eliminated_acquisitions));
    os << line;
    if (results.size() > 1) {
      std::snprintf(line, sizeof(line), "      %6.1f",
                    normalized(r.exec_time, base.exec_time));
      os << line;
    }
    os << "\n";
  }
}

void print_csv(std::ostream& os, const std::vector<RunResult>& results) {
  os << "protocol,directory,exec_cycles,busy,read_stall,write_stall,"
        "messages,read_misses,write_actions,eliminated,invalidations,"
        "false_sharing_misses,dir_entry_evictions\n";
  for (const RunResult& r : results) {
    os << to_string(r.protocol) << ',' << to_string(r.directory) << ','
       << r.exec_time << ',' << r.time.busy
       << ',' << r.time.read_stall << ',' << r.time.write_stall << ','
       << r.traffic_total << ',' << r.global_read_misses << ','
       << r.global_write_actions << ',' << r.eliminated_acquisitions << ','
       << r.invalidations << ',' << r.false_sharing_misses << ','
       << r.dir_entry_evictions << "\n";
  }
}

void print_json(std::ostream& os, const std::vector<RunResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    os << "  {\"protocol\":\"" << to_string(r.protocol) << "\""
       << ",\"directory\":\"" << to_string(r.directory) << "\""
       << ",\"exec_cycles\":" << r.exec_time
       << ",\"busy\":" << r.time.busy
       << ",\"read_stall\":" << r.time.read_stall
       << ",\"write_stall\":" << r.time.write_stall
       << ",\"messages\":" << r.traffic_total
       << ",\"read_misses\":" << r.global_read_misses
       << ",\"write_actions\":" << r.global_write_actions
       << ",\"eliminated\":" << r.eliminated_acquisitions
       << ",\"invalidations\":" << r.invalidations
       << ",\"ls_fraction\":" << r.oracle_total.ls_fraction()
       << ",\"migratory_fraction\":" << r.oracle_total.migratory_fraction()
       << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace

void print_driver_results(std::ostream& os, const DriverOptions& options,
                          const std::vector<RunResult>& results) {
  if (results.empty()) return;
  switch (options.format) {
    case OutputFormat::kText:
      print_text(os, options, results);
      break;
    case OutputFormat::kCsv:
      print_csv(os, results);
      break;
    case OutputFormat::kJson:
      print_json(os, results);
      break;
  }
}

}  // namespace lssim

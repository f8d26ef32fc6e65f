#include "trace/replay_compare.hpp"

#include <algorithm>

#include "exec/parallel_executor.hpp"
#include "machine/issue_scheduler.hpp"
#include "machine/system.hpp"
#include "mem/address_space.hpp"
#include "trace/config_hash.hpp"
#include "trace/recorder.hpp"
#include "workloads/result_fields.hpp"

namespace lssim {

CapturedTrace capture_trace(const MachineConfig& config,
                            const WorkloadBuilder& build, std::uint64_t seed,
                            const std::string& workload) {
  if (config.consistency != ConsistencyModel::kSc) {
    throw std::invalid_argument(
        "trace capture requires sequential consistency: buffered stores "
        "(PC) overlap compute with access latency, which the per-node "
        "completion-gap encoding cannot represent");
  }
  CapturedTrace captured;
  System sys(config, seed);
  TraceRecorder recorder(sys, captured.trace);
  build(sys);
  sys.run();
  if (sys.timed_out()) {
    throw std::runtime_error(
        "trace capture hit the max_cycles watchdog: refusing to record a "
        "truncated access stream");
  }
  recorder.finish(sys);
  captured.trace.meta().config_hash = trace_config_hash(config);
  captured.trace.meta().hash_version = kTraceConfigHashVersion;
  captured.trace.meta().seed = seed;
  captured.trace.meta().workload = workload;
  captured.executed = collect(sys);
  return captured;
}

TraceConfigMismatch::TraceConfigMismatch(std::uint64_t trace,
                                         std::uint64_t machine)
    : std::runtime_error(
          "trace/machine configuration mismatch: trace recorded on " +
          format_config_hash(trace) + ", replay machine is " +
          format_config_hash(machine) +
          " (protocol-insensitive fields differ; re-capture the trace)"),
      trace_hash(trace),
      machine_hash(machine) {}

namespace {

void check_config_compatible(const Trace& trace, const MachineConfig& cfg) {
  const std::uint64_t recorded = trace.meta().config_hash;
  if (recorded == 0) {
    return;  // Hand-built or version-1 trace: nothing to check against.
  }
  const std::uint32_t version = trace.meta().hash_version;
  if (version == 0 && cfg.interconnect != InterconnectKind::kNetwork) {
    // Pre-seam hash schemas do not cover the transport, and such
    // captures could only have run on the directory network — replaying
    // one on the bus is a config mismatch even where the hashed fields
    // agree.
    throw TraceConfigMismatch(recorded, trace_config_hash(cfg));
  }
  // Recompute under the capture's schema so older captures keep
  // replaying on machines they actually describe.
  const std::uint64_t machine = trace_config_hash(cfg, version);
  if (recorded != machine) {
    throw TraceConfigMismatch(recorded, machine);
  }
}

}  // namespace

ReplayCompareEngine::ReplayCompareEngine(const Trace& trace,
                                         const MachineConfig& base)
    : trace_(&trace), base_(base) {
  if (base_.consistency != ConsistencyModel::kSc) {
    throw std::invalid_argument(
        "trace replay requires sequential consistency (matching capture)");
  }
  check_config_compatible(trace, base_);
  streams_.resize(static_cast<std::size_t>(base_.num_nodes));
  const auto& records = trace.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (r.node >= streams_.size()) {
      throw std::out_of_range(
          "trace record " + std::to_string(i) + " has node " +
          std::to_string(r.node) + ", outside the " +
          std::to_string(streams_.size()) + "-node machine");
    }
    DecodedAccess d;
    d.addr = r.addr;
    d.gap = r.issue_gap;
    d.site = r.site;
    d.op = static_cast<MemOpKind>(r.op);
    d.tag = static_cast<StreamTag>(r.tag);
    d.size = static_cast<std::uint8_t>(r.size);
    streams_[r.node].push_back(d);
  }
}

RunResult ReplayCompareEngine::replay_collect(const MachineConfig& config,
                                              Stats& stats,
                                              Cycles* total_cycles) const {
  check_config_compatible(*trace_, config);
  AddressSpace space(config.num_nodes, config.page_bytes);
  MemorySystem memory(config, space, stats);
  // No workload consumes the replayed values and no checker is attached:
  // skip the simulated data movement (stat-neutral; see protocol.hpp).
  memory.enable_lean_replay();

  const auto& final_gaps = trace_->meta().final_gaps;
  const std::size_t nodes = streams_.size();
  std::vector<std::size_t> cursor(nodes, 0);
  std::vector<Cycles> clock(nodes, 0);
  IssueScheduler sched(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    if (!streams_[n].empty()) sched.update(n, streams_[n][0].gap);
  }

  // The live scheduler, without the coroutines: the same IssueScheduler
  // picks the pending access with the earliest issue time, then that
  // node's clock advances by the access latency. The recorded gap is the
  // compute the program did between the accesses.
  while (!sched.done()) {
    const std::size_t best = sched.winner();
    const Cycles issue_time = sched.winner_time();
    const DecodedAccess& d = streams_[best][cursor[best]++];
    AccessRequest req;
    req.op = d.op;
    req.addr = d.addr;
    req.size = d.size;
    req.tag = d.tag;
    req.site = d.site;
    const AccessResult res =
        memory.access(static_cast<NodeId>(best), req, issue_time);

    // The inter-access gap was compute (busy) time.
    TimeBreakdown& tb = stats.per_proc[best];
    tb.busy += d.gap;
    account_access(tb, req.is_write(), res.latency,
                   config.latency.l1_access);
    clock[best] = issue_time + res.latency;
    if (cursor[best] < streams_[best].size()) {
      const DecodedAccess& up = streams_[best][cursor[best]];
      sched.update(best, clock[best] + up.gap);
    } else {
      sched.update(best, IssueScheduler::kRetired);
    }
  }

  // Trailing compute after each node's last access (or a node's whole
  // program, when it never touched memory).
  Cycles exec_time = 0;
  Cycles clock_sum = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const Cycles gap = n < final_gaps.size() ? final_gaps[n] : 0;
    stats.per_proc[n].busy += gap;
    clock[n] += gap;
    exec_time = std::max(exec_time, clock[n]);
    clock_sum += clock[n];
  }
  memory.finalize();
  if (total_cycles != nullptr) {
    *total_cycles = clock_sum;
  }
  return collect(config, stats, memory, exec_time);
}

RunResult ReplayCompareEngine::replay_config(
    const MachineConfig& config) const {
  Stats stats(config.num_nodes);
  return replay_collect(config, stats);
}

RunResult ReplayCompareEngine::replay(ProtocolKind protocol) const {
  MachineConfig cfg = base_;
  cfg.protocol.kind = protocol;
  return replay_config(cfg);
}

RunResult ReplayCompareEngine::replay(ProtocolKind protocol,
                                      DirectoryKind directory) const {
  MachineConfig cfg = base_;
  cfg.protocol.kind = protocol;
  cfg.directory_scheme = directory;
  return replay_config(cfg);
}

std::vector<RunResult> ReplayCompareEngine::replay_matrix(
    std::span<const ProtocolKind> protocols,
    std::span<const DirectoryKind> directories, int jobs) const {
  const std::size_t dirs = std::max<std::size_t>(1, directories.size());
  return parallel_map<RunResult>(
      protocols.size() * dirs, jobs, [&, this](std::size_t i) {
        MachineConfig cfg = base_;
        cfg.protocol.kind = protocols[i / dirs];
        if (!directories.empty()) {
          cfg.directory_scheme = directories[i % dirs];
        }
        return replay_config(cfg);
      });
}

std::vector<std::string> compare_replay(const RunResult& executed,
                                        const RunResult& replayed) {
  std::vector<std::string> diffs;
  for (const RunResultField& field : kRunResultFields) {
    const std::uint64_t exec = field.get(executed);
    const std::uint64_t replay = field.get(replayed);
    if (exec != replay) {
      diffs.push_back(std::string(field.key) + ": executed " +
                      field.text(exec) + ", replayed " + field.text(replay));
    }
  }
  return diffs;
}

}  // namespace lssim

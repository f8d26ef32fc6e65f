#include "machine/system.hpp"

#include <cassert>
#include <stdexcept>

#include "check/invariants.hpp"
#include "machine/issue_scheduler.hpp"

namespace lssim {

System::System(const MachineConfig& config, std::uint64_t seed)
    : cfg_(config),
      stats_(config.num_nodes),
      space_(config.num_nodes, config.page_bytes),
      heap_(space_),
      telemetry_(config.telemetry),
      memory_(config, space_, stats_, &telemetry_),
      timeline_(config.stats_epoch) {
  const std::string problem = config.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("invalid MachineConfig: " + problem);
  }
  if (config.check_invariants) {
    checker_ = std::make_unique<check::InvariantChecker>();
    memory_.attach_checker(checker_.get());
  }
  procs_.reserve(static_cast<std::size_t>(config.num_nodes));
  programs_.resize(static_cast<std::size_t>(config.num_nodes));
  for (int n = 0; n < config.num_nodes; ++n) {
    procs_.push_back(
        std::make_unique<Processor>(static_cast<NodeId>(n), seed));
  }
  if (MetricsRegistry* m = telemetry_.metrics()) {
    read_latency_h_ = m->histogram("sys.read_latency");
    write_latency_h_ = m->histogram("sys.write_latency");
    exec_time_g_ = m->gauge("sys.exec_cycles");
    node_accesses_.reserve(static_cast<std::size_t>(config.num_nodes));
    for (int n = 0; n < config.num_nodes; ++n) {
      node_accesses_.push_back(m->counter(
          "sys.accesses", MetricLabels{{"node", std::to_string(n)}}));
    }
  }
}

// Out of line: ~unique_ptr<InvariantChecker> needs the complete type.
System::~System() = default;

void System::spawn(NodeId node, SimTask<void> program) {
  assert(node < procs_.size());
  assert(!programs_[node].valid() && "processor already has a program");
  programs_[node] = std::move(program);
}

void System::run() {
  assert(!ran_ && "System::run may only be called once");
  ran_ = true;

  // Start every program; each runs until its first memory access (or to
  // completion, for programs that never touch simulated memory).
  IssueScheduler sched(procs_.size());
  for (std::size_t n = 0; n < programs_.size(); ++n) {
    if (programs_[n].valid()) {
      programs_[n].resume();
    }
    const Processor& proc = *procs_[n];
    sched.update(n, proc.has_pending_ ? proc.time_ : IssueScheduler::kRetired);
  }

  // Issue the pending access of the processor with the earliest local
  // time (ties to the lowest node id, keeping runs deterministic).
  while (!sched.done()) {
    Processor* next = procs_[sched.winner()].get();
    if (cfg_.max_cycles != 0 && next->time_ > cfg_.max_cycles) {
      timed_out_ = true;  // Watchdog: leave remaining programs suspended.
      break;
    }

    next->has_pending_ = false;
    const AccessRequest req = next->pending_;
    const AccessResult res = memory_.access(next->id_, req, next->time_);
    for (const AccessObserver& observer : observers_) {
      observer(next->id_, req, next->time_, res.latency);
    }
    if (req.is_write()) {
      stats_.write_latency.record(res.latency);
    } else {
      stats_.read_latency.record(res.latency);
    }
    if (MetricsRegistry* m = telemetry_.metrics()) {
      m->add(node_accesses_[next->id_]);
      m->observe(req.is_write() ? write_latency_h_ : read_latency_h_,
                 res.latency);
    }
    if (timeline_.enabled()) {
      timeline_.observe(next->time_, stats_.accesses,
                        stats_.messages_total(), stats_.global_read_misses,
                        stats_.global_write_actions,
                        stats_.eliminated_acquisitions);
    }

    // Time accounting: sequential consistency (paper default) via
    // account_access(). Under processor consistency, plain stores retire
    // into a finite write buffer: the processor only stalls when the
    // buffer is full; reads and atomic RMWs remain blocking (paper §6
    // discussion).
    TimeBreakdown& tb = stats_.per_proc[next->id_];
    if (cfg_.consistency == ConsistencyModel::kPc &&
        req.op == MemOpKind::kWrite) {
      auto& wb = next->write_buffer_;
      while (!wb.empty() && wb.front() <= next->time_) {
        wb.pop_front();  // Drain completed stores.
      }
      Cycles stall = 0;
      if (wb.size() >= cfg_.write_buffer_depth) {
        stall = wb.front() - next->time_;
        wb.pop_front();
      }
      wb.push_back(next->time_ + stall + res.latency);
      const Cycles issue =
          std::min<Cycles>(res.latency, cfg_.latency.l1_access);
      tb.busy += issue;
      tb.write_stall += stall;
      next->time_ += stall + issue;
    } else {
      account_access(tb, req.is_write(), res.latency, cfg_.latency.l1_access);
      next->time_ += res.latency;
    }
    next->result_ = res.value;
    next->resume_point_.resume();
    sched.update(next->id_,
                 next->has_pending_ ? next->time_ : IssueScheduler::kRetired);
  }

  // Fold compute-cycle busy time into the stats and flush classifiers.
  for (auto& proc : procs_) {
    stats_.per_proc[proc->id_].busy += proc->busy_;
    proc->busy_ = 0;
  }
  memory_.finalize();
  if (checker_) {
    checker_->final_check(memory_);
  }
  if (MetricsRegistry* m = telemetry_.metrics()) {
    m->set(exec_time_g_, static_cast<std::int64_t>(exec_time()));
  }
}

Cycles System::exec_time() const noexcept {
  Cycles latest = 0;
  for (const auto& proc : procs_) {
    latest = std::max(latest, proc->time_);
  }
  return latest;
}

}  // namespace lssim

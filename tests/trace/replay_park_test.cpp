// Spin parking in trace replay: a run of repeated reads after an L1 read
// hit is accounted in bulk instead of replayed record by record, and no
// statistic may change.
//
// The reference is the same trace with every repeated read given a
// distinct access site: nothing is marked as a repeat, so every record
// replays one at a time. Only ILS reads sites, so the comparison covers
// the nine other protocols (ILS observes accesses and never parks).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/protocol_registry.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "sync/barrier.hpp"
#include "sync/spinlock.hpp"
#include "trace/replay_compare.hpp"
#include "workloads/harness.hpp"

namespace lssim {
namespace {

/// One replay's observable output.
struct Replayed {
  RunResult result;
  /// busy, read stall, write stall per node; they sum to its clock.
  std::vector<Cycles> per_proc;
  std::uint64_t bulk = 0;
};

Replayed replay_of(const ReplayCompareEngine& engine,
                   const MachineConfig& cfg) {
  Replayed out;
  Stats stats(cfg.num_nodes);
  out.result = engine.replay_collect(cfg, stats, &out.bulk);
  for (const TimeBreakdown& tb : stats.per_proc) {
    out.per_proc.insert(out.per_proc.end(),
                        {tb.busy, tb.read_stall, tb.write_stall});
  }
  return out;
}

/// `trace` with each read that repeats its node's previous record moved
/// to a site of its own, so replay marks no run.
Trace without_repeats(const Trace& trace) {
  Trace copy;
  copy.meta() = trace.meta();
  std::vector<TraceRecord> last(kMaxNodes);
  std::vector<bool> seen(kMaxNodes, false);
  std::vector<std::uint32_t> last_site(kMaxNodes, 0);
  for (const TraceRecord& r : trace.records()) {
    TraceRecord out = r;
    const TraceRecord& prev = last[r.node];
    const auto read = static_cast<std::uint8_t>(MemOpKind::kRead);
    if (seen[r.node] && r.op == read && prev.op == read &&
        prev.addr == r.addr && prev.size == r.size && prev.site == r.site &&
        prev.tag == r.tag) {
      out.site = last_site[r.node] ^ 1u;
    }
    last[r.node] = r;
    seen[r.node] = true;
    last_site[r.node] = out.site;
    copy.append(out);
  }
  return copy;
}

/// Replays `trace` under `cfg` with and without repeats; both must agree
/// exactly. Returns the reads the parked replay accounted in bulk.
std::uint64_t parked_reads(const Trace& trace, const MachineConfig& cfg,
                           const std::string& label) {
  const Trace plain = without_repeats(trace);
  const Replayed parked = replay_of(ReplayCompareEngine(trace, cfg), cfg);
  const Replayed unparked = replay_of(ReplayCompareEngine(plain, cfg), cfg);
  EXPECT_EQ(unparked.bulk, 0u) << label;
  EXPECT_TRUE(parked.result == unparked.result)
      << label << ": "
      << [&] {
           const auto diffs = compare_replay(unparked.result, parked.result);
           return diffs.empty() ? std::string() : diffs.front();
         }();
  EXPECT_EQ(parked.per_proc, unparked.per_proc) << label;
  return parked.bulk;
}

std::vector<ProtocolKind> site_blind_protocols() {
  std::vector<ProtocolKind> kinds;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    if (kind != ProtocolKind::kIls) kinds.push_back(kind);
  }
  return kinds;
}

// ---- spin-heavy captured traces -----------------------------------------

SimTask<void> lock_handoffs(System& sys, NodeId id, SpinLock lock,
                            Addr counter, int rounds) {
  Processor& proc = sys.proc(id);
  for (int r = 0; r < rounds; ++r) {
    co_await lock.acquire(proc);
    const std::uint64_t value = co_await proc.read(counter);
    co_await proc.write(counter, value + 1);
    proc.compute(40);
    co_await lock.release(proc);
    proc.compute(20 + 30 * static_cast<Cycles>((id + r) % 4));
  }
}

void build_lock_handoff(System& sys) {
  const SpinLock lock(sys.heap());
  const Addr counter = sys.heap().alloc(8, 64);
  for (int n = 0; n < sys.num_procs(); ++n) {
    const auto id = static_cast<NodeId>(n);
    sys.spawn(id, lock_handoffs(sys, id, lock, counter, 6));
  }
}

SimTask<void> barrier_episodes(System& sys, NodeId id, Barrier& barrier,
                               int episodes) {
  Processor& proc = sys.proc(id);
  for (int e = 0; e < episodes; ++e) {
    proc.compute(100 + 300 * static_cast<Cycles>((id * 7 + e) % 8));
    co_await barrier.wait(proc);
  }
}

void build_barrier(System& sys) {
  auto barrier = std::make_shared<Barrier>(sys.heap(), sys.num_procs());
  sys.retain(barrier);
  for (int n = 0; n < sys.num_procs(); ++n) {
    const auto id = static_cast<NodeId>(n);
    sys.spawn(id, barrier_episodes(sys, id, *barrier, 8));
  }
}

WorkloadBuilder stencil_builder() {
  DriverOptions options;
  options.workload = "stencil";
  options.params = {{"width", "32"}, {"height", "32"}, {"sweeps", "2"}};
  return make_driver_builder(options);
}

struct SpinTrace {
  const char* name;
  WorkloadBuilder build;
  MachineConfig machine;  ///< Interconnect set per capture.
};

std::vector<SpinTrace> spin_traces() {
  MachineConfig scientific =
      MachineConfig::scientific_default(ProtocolKind::kLs, 16);
  scientific.directory_scheme = DirectoryKind::kLimitedPtr;
  // The OLTP machine's two-way L1 keeps LRU stamps: bulk touches must
  // land exactly where the one-at-a-time touches would.
  MachineConfig oltp = MachineConfig::oltp_default(ProtocolKind::kLs, 16);
  oltp.directory_scheme = DirectoryKind::kLimitedPtr;
  return {{"lock", build_lock_handoff, oltp},
          {"barrier", build_barrier, scientific},
          {"stencil", stencil_builder(), scientific}};
}

TEST(ReplayPark, SpinTracesUnderEveryProtocolOrganisationAndTransport) {
  for (const SpinTrace& spin : spin_traces()) {
    for (const InterconnectKind net :
         {InterconnectKind::kNetwork, InterconnectKind::kBus}) {
      MachineConfig capture = spin.machine;
      capture.interconnect = net;
      const Trace trace =
          capture_trace(capture, spin.build, 1, spin.name).trace;
      for (const DirectoryKind dir : kDirectoryNames.all()) {
        for (const ProtocolKind kind : site_blind_protocols()) {
          MachineConfig cfg = capture;
          cfg.protocol.kind = kind;
          cfg.directory_scheme = dir;
          cfg.directory_pointers = 2;   // Limited-ptr overflows.
          cfg.directory_region = 2;     // Coarse regions cover two nodes.
          cfg.directory_entries = 128;  // Sparse evicts.
          const std::string label = std::string(spin.name) + "/" +
                                    to_string(net) + "/" + to_string(dir) +
                                    "/" + to_string(kind);
          EXPECT_GT(parked_reads(trace, cfg, label), 0u) << label;
        }
      }
    }
  }
}

TEST(ReplayPark, IlsNeverParks) {
  for (const SpinTrace& spin : spin_traces()) {
    MachineConfig cfg = spin.machine;
    cfg.protocol.kind = ProtocolKind::kIls;
    const CapturedTrace captured = capture_trace(cfg, spin.build, 1);
    const Replayed replayed =
        replay_of(ReplayCompareEngine(captured.trace, cfg), cfg);
    EXPECT_EQ(replayed.bulk, 0u) << spin.name;
    EXPECT_TRUE(compare_replay(captured.executed, replayed.result).empty())
        << spin.name;
  }
}

TEST(ReplayPark, IneligibleMachinesReplayEveryRecord) {
  MachineConfig plain = MachineConfig::scientific_default(ProtocolKind::kLs);
  MachineConfig classify = plain;
  classify.classify_false_sharing = true;
  MachineConfig assoc_l2 = plain;
  assoc_l2.l2.assoc = 2;
  for (const MachineConfig* cfg : {&plain, &classify, &assoc_l2}) {
    const Trace trace = capture_trace(*cfg, build_barrier, 1).trace;
    const std::uint64_t bulk = parked_reads(trace, *cfg, "barrier");
    if (cfg == &plain) {
      EXPECT_GT(bulk, 0u);
    } else {
      EXPECT_EQ(bulk, 0u);
    }
  }
}

TEST(ReplayPark, PreSizedTablesChangeNoResult) {
  // The second cell of an engine pre-sizes its directory and oracle to
  // what the first reached; a sparse directory keeps its own layout.
  MachineConfig cfg = MachineConfig::scientific_default(ProtocolKind::kLs, 16);
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  cfg.directory_entries = 64;
  const Trace trace = capture_trace(cfg, stencil_builder(), 1).trace;
  for (const DirectoryKind dir : kDirectoryNames.all()) {
    const RunResult fresh = ReplayCompareEngine(trace, cfg).replay(
        ProtocolKind::kLs, dir);
    const ReplayCompareEngine warm(trace, cfg);
    (void)warm.replay(ProtocolKind::kBaseline, DirectoryKind::kFullMap);
    EXPECT_TRUE(warm.replay(ProtocolKind::kLs, dir) == fresh)
        << to_string(dir);
  }
}

// ---- hand-built edge cases ----------------------------------------------

constexpr Addr kSpin = 0x4000;   // The spun-on word.
constexpr Addr kOther = 0x8000;  // A block nobody spins on.
constexpr Cycles kGap = 10;      // Compute between repeated reads.
constexpr int kRepeats = 400;    // Repeated reads after the first.

TraceRecord record(NodeId node, MemOpKind op, Addr addr, Cycles gap) {
  TraceRecord r;
  r.node = node;
  r.op = static_cast<std::uint8_t>(op);
  r.addr = addr;
  r.issue_gap = gap;
  r.size = 8;
  r.site = 7;
  return r;
}

/// Node `spinner`'s first read of kSpin, then kRepeats repeats of it.
void append_spin(Trace& trace, NodeId spinner) {
  trace.append(record(spinner, MemOpKind::kRead, kSpin, 0));
  for (int i = 0; i < kRepeats; ++i) {
    trace.append(record(spinner, MemOpKind::kRead, kSpin, kGap));
  }
}

MachineConfig edge_machine(ProtocolKind kind) {
  return MachineConfig::scientific_default(kind, 4);
}

/// Issue time of repeat `j` (1-based) after a first read of latency
/// `first`, every repeat an L1 hit.
Cycles repeat_issue(const MachineConfig& cfg, Cycles first, int j) {
  return first + static_cast<Cycles>(j) * kGap +
         static_cast<Cycles>(j - 1) * cfg.latency.l1_access;
}

/// Latency of `node`'s first read of kSpin on an idle machine.
Cycles first_read_latency(const MachineConfig& cfg, NodeId node) {
  Trace alone;
  alone.append(record(node, MemOpKind::kRead, kSpin, 0));
  return ReplayCompareEngine(alone, cfg).replay_config(cfg).exec_time;
}

TEST(ReplayPark, RunThatEndsUnwokenIsAccountedWhole) {
  for (const ProtocolKind kind : site_blind_protocols()) {
    Trace trace;
    append_spin(trace, 0);
    trace.append(record(0, MemOpKind::kWrite, kOther, 5));
    trace.append(record(1, MemOpKind::kWrite, kOther + 64, 100));
    // The first read misses; the first repeat hits and parks the rest.
    EXPECT_EQ(parked_reads(trace, edge_machine(kind), to_string(kind)),
              static_cast<std::uint64_t>(kRepeats - 1))
        << to_string(kind);
  }
}

TEST(ReplayPark, WakeTieRuleInBothIdOrders) {
  // The writer's store lands exactly on a repeat's issue time. A spinner
  // with the lower id issues that read first (a hit); with the higher id
  // the store goes first and the read misses.
  for (const ProtocolKind kind : site_blind_protocols()) {
    const MachineConfig cfg = edge_machine(kind);
    for (const auto& [spinner, writer] :
         {std::pair<NodeId, NodeId>{0, 1}, std::pair<NodeId, NodeId>{1, 0}}) {
      const Cycles first = first_read_latency(cfg, spinner);
      for (const int j : {kRepeats / 2, kRepeats}) {
        Trace trace;
        append_spin(trace, spinner);
        trace.append(record(writer, MemOpKind::kWrite, kSpin,
                            repeat_issue(cfg, first, j)));
        const std::string label = std::string(to_string(kind)) +
                                  " spinner " + std::to_string(spinner) +
                                  " store at repeat " + std::to_string(j);
        const std::uint64_t bulk = parked_reads(trace, cfg, label);
        if (j == kRepeats) {
          // Waking at the last repeat: the lower id finished its run.
          EXPECT_EQ(bulk, static_cast<std::uint64_t>(
                              spinner < writer ? kRepeats - 1 : kRepeats - 2))
              << label;
        } else {
          EXPECT_LT(bulk, static_cast<std::uint64_t>(kRepeats - 1)) << label;
        }
      }
    }
  }
}

// In the three wake cases below, node 1 acts on kSpin at about cycle
// 1500, well inside node 0's run (over 4000 cycles of repeats).

TEST(ReplayPark, WakeByInvalidation) {
  // A remote store invalidates the spinner's Shared copy: the read after
  // the wake misses, the next one hits and parks again.
  Trace trace;
  append_spin(trace, 0);
  trace.append(record(1, MemOpKind::kWrite, kSpin, 1500));
  EXPECT_EQ(parked_reads(trace, edge_machine(ProtocolKind::kBaseline),
                         "invalidation"),
            static_cast<std::uint64_t>(kRepeats - 3));
}

TEST(ReplayPark, WakeByDowngrade) {
  // The spinner wrote the block (Modified), so its first read already
  // hits and all kRepeats park; a remote read downgrades the copy, and
  // the read after the wake hits the Shared copy and parks again.
  Trace trace;
  trace.append(record(0, MemOpKind::kWrite, kSpin, 0));
  append_spin(trace, 0);
  trace.append(record(1, MemOpKind::kRead, kSpin, 1500));
  EXPECT_EQ(parked_reads(trace, edge_machine(ProtocolKind::kBaseline),
                         "downgrade"),
            static_cast<std::uint64_t>(kRepeats - 1));
}

TEST(ReplayPark, WakeByDragonUpdate) {
  // Both nodes share the block; node 1's store updates node 0's copy in
  // place. The copy stays valid, so the read after the wake hits.
  Trace trace;
  append_spin(trace, 0);
  trace.append(record(1, MemOpKind::kRead, kSpin, 0));
  trace.append(record(1, MemOpKind::kWrite, kSpin, 1500));
  EXPECT_EQ(
      parked_reads(trace, edge_machine(ProtocolKind::kDragon), "dragon"),
      static_cast<std::uint64_t>(kRepeats - 2));
}

TEST(ReplayPark, TraceEndingInsideARun) {
  // The spinner's stream ends on repeats: the node retires from the
  // bulk step and its trailing compute still counts. Once while another
  // node keeps running, once with the whole trace ending in the run.
  for (const Cycles other_gap : {Cycles{5000}, Cycles{0}}) {
    Trace trace;
    append_spin(trace, 0);
    trace.append(record(1, MemOpKind::kWrite, kOther, other_gap));
    trace.meta().final_gaps = {17, 3};
    const std::string label = "other node at " + std::to_string(other_gap);
    EXPECT_EQ(parked_reads(trace, edge_machine(ProtocolKind::kLs), label),
              static_cast<std::uint64_t>(kRepeats - 1))
        << label;
  }
}

}  // namespace
}  // namespace lssim

// The traced run (per-layer metrics).
//
// Spans wrap each public call from outside the simulator. To split
// System::run without touching it, the traced simulation records every
// access through System::add_access_observer (node, request, issue time);
// the sequence is then re-issued into fresh MemorySystems. A page's home
// is a pure function of its address, so the re-issue repeats the live
// run's coherence work exactly, which the counter comparison proves. The
// cache, directory, interconnect and oracle costs come from standalone
// calls into those classes, fed with the same recorded stream.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

using namespace lssim;

namespace {

struct Issued {
  Cycles now = 0;
  AccessRequest req;
  NodeId node = 0;
};

/// One access of the stream that reached the home node.
struct GlobalOp {
  Cycles now = 0;
  Addr block = 0;
  NodeId node = 0;
  NodeId home = 0;
  bool write = false;
  StreamTag tag = StreamTag::kApp;
};

enum HitClass : std::uint8_t { kL1Hit, kL2Hit, kGlobal, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"l1_hit", "l2_hit",
                                                  "global"};

/// Results of the standalone loops land here, so none is optimised away.
volatile std::uint64_t g_sink = 0;

HitClass class_of(const AccessResult& r) {
  return r.l1_hit ? kL1Hit : r.l2_hit ? kL2Hit : kGlobal;
}

/// What a System owns below its scheduler, built fresh for a re-issue.
struct Machine {
  explicit Machine(const MachineConfig& cfg)
      : stats(cfg.num_nodes),
        space(cfg.num_nodes, cfg.page_bytes),
        memory(cfg, space, stats) {}
  Stats stats;
  AddressSpace space;
  MemorySystem memory;
};

/// Median cost of two back-to-back clock reads, taken off each timed batch.
double clock_overhead_s() {
  std::vector<double> samples;
  for (int i = 0; i < 2001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    samples.push_back(seconds_between(a, b));
  }
  return median(samples);
}

/// Per-layer figures of one simulation. Seconds and (seconds, ops) pairs
/// are host time; the rest are counts the simulation produced.
struct SimLayers {
  double construct_s = 0, build_s = 0, run_s = 0, traced_run_s = 0;
  double collect_s = 0, export_s = 0;
  double unobserved_run_s = 0;  ///< System::run with telemetry off.
  double core_s = 0;
  double class_s[kNumClasses] = {};
  std::uint64_t class_n[kNumClasses] = {};
  double probe_s = 0, entry_s = 0, send_s = 0, oracle_s = 0;
  std::uint64_t probes = 0, globals = 0, sends = 0;
  std::uint64_t events = 0, audit_records = 0;
  std::uint64_t dir_entries = 0, queueing = 0;
  RunResult result;
};

/// Re-issued counters must equal the live run's; the time breakdown and
/// exec time come from the scheduler, which the re-issue bypasses.
std::vector<std::string> reissue_problems(Machine& m, const RunResult& live,
                                          const MachineConfig& cfg) {
  m.memory.finalize();
  RunResult again = collect(cfg, m.stats, m.memory, live.exec_time);
  again.time = live.time;
  std::vector<std::string> problems = compare_replay(live, again);
  if (problems.empty() && digest(again) != digest(live)) {
    problems.push_back("counters outside compare_replay's fields differ");
  }
  return problems;
}

SimLayers trace_sim(const Sim& sim, Checker& checker, double overhead) {
  SimLayers L;
  const auto rerun = [sim] { return run_live(sim).result; };

  // The untraced reference run.
  const LiveRun plain = run_live(sim);
  checker.check(sim.key, plain.result, rerun);
  L.construct_s = plain.construct_s;
  L.build_s = plain.build_s;
  L.run_s = plain.run_s;
  L.collect_s = plain.collect_s;
  L.export_s = plain.export_s;
  L.events = plain.events;
  L.audit_records = plain.audit_records;
  L.result = plain.result;
  L.unobserved_run_s = plain.run_s;
  if (sim.cfg.telemetry.any()) {
    checker.expect(sim.key + " telemetry artifacts", plain.artifact_problems);
    Sim off = sim;
    off.cfg.telemetry = TelemetryConfig{};
    const LiveRun unobserved = run_live(off);
    checker.check(off.key, unobserved.result,
                  [off] { return run_live(off).result; });
    L.unobserved_run_s = unobserved.run_s;
  }

  // The traced run: the same simulation with every access recorded.
  std::vector<Issued> stream;
  stream.reserve(plain.result.accesses);
  const LiveRun traced = run_live(
      sim, [&stream](NodeId node, const AccessRequest& req, Cycles now,
                     Cycles) { stream.push_back(Issued{now, req, node}); });
  checker.check(sim.key, traced.result, rerun);
  L.traced_run_s = traced.run_s;

  // Re-issue 1: the whole stream under one span gives core.access_s, and
  // each access's hit class. Telemetry stays off here; its hook cost is
  // telemetry.run_overhead_s.
  MachineConfig cfg = sim.cfg;
  cfg.telemetry = TelemetryConfig{};
  const std::size_t n = stream.size();
  std::vector<HitClass> classes(n);
  Machine first(cfg);
  {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      classes[i] =
          class_of(first.memory.access(stream[i].node, stream[i].req,
                                       stream[i].now));
    }
    L.core_s = seconds_between(begin, Clock::now());
  }
  checker.expect(sim.key + " re-issue counters",
                 reissue_problems(first, plain.result, cfg));

  // Re-issue 2: one span per run of same-class accesses, so the clock
  // cost is shared by the run and subtracted once.
  {
    Machine second(cfg);
    std::uint64_t misclassified = 0;
    for (std::size_t i = 0; i < n;) {
      const HitClass c = classes[i];
      std::size_t j = i;
      const auto begin = Clock::now();
      for (; j < n && classes[j] == c; ++j) {
        misclassified += class_of(second.memory.access(
                             stream[j].node, stream[j].req, stream[j].now)) !=
                         c;
      }
      L.class_s[c] +=
          std::max(0.0, seconds_between(begin, Clock::now()) - overhead);
      L.class_n[c] += j - i;
      i = j;
    }
    std::vector<std::string> problems =
        reissue_problems(second, plain.result, cfg);
    if (misclassified != 0) {
      problems.push_back(std::to_string(misclassified) +
                         " accesses changed hit class between re-issues");
    }
    checker.expect(sim.key + " timed re-issue counters", problems);
  }

  // Standalone calls into single layers, fed with the recorded stream.
  std::vector<GlobalOp> globals;
  for (std::size_t i = 0; i < n; ++i) {
    if (classes[i] != kGlobal) continue;
    const Issued& s = stream[i];
    globals.push_back(GlobalOp{
        s.now, first.memory.cache(s.node).l2().block_of(s.req.addr), s.node,
        first.space.home_of(s.req.addr), s.req.is_write(), s.req.tag});
  }
  std::uint64_t sink = 0;
  {
    const auto begin = Clock::now();
    for (const Issued& s : stream) {
      const CacheHierarchy& caches = first.memory.cache(s.node);
      sink += caches.probe(caches.l2().block_of(s.req.addr)).l1_hit;
    }
    L.probe_s = seconds_between(begin, Clock::now());
    L.probes = n;
  }
  {
    Directory directory;
    const auto begin = Clock::now();
    for (const GlobalOp& g : globals) {
      DirEntry& entry = directory.entry(g.block);
      entry.last_reader = g.node;
      sink += entry.sharers;
    }
    L.entry_s = seconds_between(begin, Clock::now());
    L.globals = globals.size();
  }
  {
    Stats scratch(cfg.num_nodes);
    const std::unique_ptr<Interconnect> net = make_interconnect(cfg, scratch);
    const auto begin = Clock::now();
    for (const GlobalOp& g : globals) {
      if (g.node == g.home) continue;
      sink += net->send(g.node, g.home,
                        g.write ? MsgType::kReadExReq : MsgType::kReadReq,
                        g.now);
      L.sends += 1;
    }
    L.send_s = seconds_between(begin, Clock::now());
  }
  {
    LoadStoreOracle oracle(true);
    const auto begin = Clock::now();
    for (const GlobalOp& g : globals) {
      if (g.write) {
        oracle.on_global_write(g.node, g.block, false, g.tag);
      } else {
        oracle.on_global_read(g.node, g.block);
      }
    }
    L.oracle_s = seconds_between(begin, Clock::now());
    sink += oracle.total().global_writes;
  }
  L.dir_entries = first.memory.directory().size();
  L.queueing = first.memory.interconnect().total_queueing();
  g_sink = sink;
  return L;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One traced round: every simulation of the workload's round, plus the
/// capture/replay pipeline on replay_oltp.
struct Round {
  std::vector<SimLayers> sims;
  ReplaySetup replay;
  double replay_s = 0;
  std::uint64_t replayed = 0;
};

Round trace_round(const std::string& workload, const std::vector<Sim>& sims,
                  Checker& checker, double overhead) {
  Round r;
  for (const Sim& sim : sims) {
    r.sims.push_back(trace_sim(sim, checker, overhead));
  }
  if (workload == "replay_oltp") {
    r.replay = run_replay_round(sims.front(), checker,
                                [&r](double s, std::uint64_t accesses) {
                                  r.replay_s += s;
                                  r.replayed += accesses;
                                });
  }
  return r;
}

/// Sum over a round's simulations of `f(simulation)`.
template <typename F>
double sum(const Round& r, F f) {
  double total = 0;
  for (const SimLayers& s : r.sims) total += static_cast<double>(f(s));
  return total;
}

/// Median over rounds of `f(round)`.
template <typename F>
double med(const std::vector<Round>& rounds, F f) {
  std::vector<double> values;
  for (const Round& r : rounds) values.push_back(f(r));
  return median(values);
}

/// Median over rounds of a time's mean per simulation.
double med_s(const std::vector<Round>& rounds, double SimLayers::*time) {
  return med(rounds, [time](const Round& r) {
    return sum(r, [time](const SimLayers& s) { return s.*time; }) /
           static_cast<double>(r.sims.size());
  });
}

/// Median over rounds of nanoseconds per operation.
double med_ns(const std::vector<Round>& rounds, double SimLayers::*time,
              std::uint64_t SimLayers::*ops) {
  return med(rounds, [time, ops](const Round& r) {
    return ratio(sum(r, [time](const SimLayers& s) { return s.*time; }) * 1e9,
                 sum(r, [ops](const SimLayers& s) { return s.*ops; }));
  });
}

/// A run-result counter summed over one round.
double count(const Round& r, std::uint64_t RunResult::*field) {
  return sum(r, [field](const SimLayers& s) { return s.result.*field; });
}

}  // namespace

MetricList run_traced(const std::string& workload,
                      std::uint64_t workload_seed, double seconds,
                      Checker& checker) {
  // The same simulations every round, so the counts repeat exactly and the
  // times are medians over identical work.
  const std::vector<Sim> sims =
      round_sims(workload, sim_seeds(workload_seed).front());
  const double overhead = clock_overhead_s();
  std::vector<Round> rounds;
  CpuRotation cpus;
  const auto start = Clock::now();
  do {
    cpus.next();
    rounds.push_back(trace_round(workload, sims, checker, overhead));
  } while (seconds_between(start, Clock::now()) < seconds);
  checker.repeat_unrecorded();
  const Round& first = rounds.front();

  const double construct = med_s(rounds, &SimLayers::construct_s);
  const double build = med_s(rounds, &SimLayers::build_s);
  const double run = med_s(rounds, &SimLayers::run_s);
  const double collect = med_s(rounds, &SimLayers::collect_s);
  const double exported = med_s(rounds, &SimLayers::export_s);
  const double core = med_s(rounds, &SimLayers::core_s);
  const double unobserved_run = med_s(rounds, &SimLayers::unobserved_run_s);
  // Telemetry's hook cost inside System::run; 0 on workloads without
  // telemetry, and noise-signed when the hooks cost less than the noise.
  const double telemetry_run = run - unobserved_run;
  const double self = std::max(0.0, unobserved_run - core);
  const double replay_pipeline = med(rounds, [](const Round& r) {
    return r.replay.save_s + r.replay.load_s + r.replay.engine_s + r.replay_s;
  });
  const double accesses = count(first, &RunResult::accesses);
  const double l1_hits = count(first, &RunResult::l1_hits);
  const double ownership = count(first, &RunResult::ownership_acquisitions);
  const double eliminated = count(first, &RunResult::eliminated_acquisitions);
  const double globals = sum(first, [](const SimLayers& s) { return s.globals; });

  MetricList m;
  m.add("machine.construct_s", construct, "s");
  m.add("machine.run_s", run, "s");
  m.add("machine.self_s", self, "s");
  m.add("machine.self_ns_per_access",
        ratio(self * 1e9 * static_cast<double>(sims.size()), accesses), "ns");
  m.add("workloads.build_s", build, "s");
  m.add("workloads.collect_s", collect, "s");
  m.add("core.access_s", core, "s");
  for (int c = 0; c < kNumClasses; ++c) {
    m.add(std::string("core.access_ns.") + kClassNames[c],
          med(rounds,
              [c](const Round& r) {
                return ratio(
                    sum(r, [c](const SimLayers& s) { return s.class_s[c]; }) *
                        1e9,
                    sum(r, [c](const SimLayers& s) { return s.class_n[c]; }));
              }),
          "ns");
  }
  m.add("core.accesses", accesses, "count");
  m.add("core.global_txns", globals, "count");
  m.add("core.ownership_acquisitions", ownership, "count");
  m.add("core.eliminated_acquisitions", eliminated, "count");
  m.add("core.invalidations", count(first, &RunResult::invalidations),
        "count");
  m.add("core.blocks_tagged", count(first, &RunResult::blocks_tagged),
        "count");
  m.add("core.blocks_detagged", count(first, &RunResult::blocks_detagged),
        "count");
  m.add("core.global_ratio", ratio(globals, accesses), "ratio");
  m.add("core.eliminated_ratio", ratio(eliminated, eliminated + ownership),
        "ratio");
  m.add("cache.probe_ns",
        med_ns(rounds, &SimLayers::probe_s, &SimLayers::probes), "ns");
  m.add("cache.l1_hit_ratio", ratio(l1_hits, accesses), "ratio");
  m.add("cache.l2_hit_ratio",
        ratio(count(first, &RunResult::l2_hits), accesses - l1_hits), "ratio");
  m.add("directory.entry_ns",
        med_ns(rounds, &SimLayers::entry_s, &SimLayers::globals), "ns");
  m.add("directory.entries",
        sum(first, [](const SimLayers& s) { return s.dir_entries; }), "count");
  m.add("directory.evictions", count(first, &RunResult::dir_entry_evictions),
        "count");
  m.add("net.send_ns", med_ns(rounds, &SimLayers::send_s, &SimLayers::sends),
        "ns");
  m.add("net.messages", count(first, &RunResult::traffic_total), "count");
  m.add("net.queueing_cycles",
        sum(first, [](const SimLayers& s) { return s.queueing; }), "cycles");
  m.add("stats.oracle_ns",
        med_ns(rounds, &SimLayers::oracle_s, &SimLayers::globals), "ns");
  m.add("trace.capture_s",
        med(rounds, [](const Round& r) { return r.replay.capture_s; }), "s");
  m.add("trace.save_s",
        med(rounds, [](const Round& r) { return r.replay.save_s; }), "s");
  m.add("trace.load_s",
        med(rounds, [](const Round& r) { return r.replay.load_s; }), "s");
  m.add("trace.bytes", static_cast<double>(first.replay.bytes), "bytes");
  m.add("trace.engine_build_s",
        med(rounds, [](const Round& r) { return r.replay.engine_s; }), "s");
  m.add("trace.replay_s", med(rounds, [](const Round& r) { return r.replay_s; }),
        "s");
  m.add("trace.replay_ns_per_access", med(rounds, [](const Round& r) {
          return ratio(r.replay_s * 1e9, static_cast<double>(r.replayed));
        }), "ns");
  m.add("telemetry.run_overhead_s", telemetry_run, "s");
  m.add("telemetry.export_s", exported, "s");
  m.add("telemetry.events",
        sum(first, [](const SimLayers& s) { return s.events; }), "count");
  m.add("telemetry.audit_records",
        sum(first, [](const SimLayers& s) { return s.audit_records; }),
        "count");
  m.add("bench.trace_overhead_s", med_s(rounds, &SimLayers::traced_run_s) - run,
        "s");

  // Each layer's share of one round's host time. The pieces are disjoint:
  // System::run splits into core, telemetry hooks and the machine's own
  // scheduling and workload code.
  const double share_machine = construct + self;
  const double share_workloads = build + collect;
  const double share_telemetry = std::max(0.0, telemetry_run) + exported;
  const double total =
      share_machine + share_workloads + core + share_telemetry +
      replay_pipeline;
  m.add("share.machine", ratio(share_machine, total), "ratio");
  m.add("share.workloads", ratio(share_workloads, total), "ratio");
  m.add("share.core", ratio(core, total), "ratio");
  m.add("share.telemetry", ratio(share_telemetry, total), "ratio");
  m.add("share.trace", ratio(replay_pipeline, total), "ratio");
  std::printf("perfbench: %s traced: %zu rounds of %zu simulation(s); host "
              "time shares: machine %.1f%%, core %.1f%%, workloads %.1f%%, "
              "telemetry %.1f%%, trace %.1f%%\n",
              workload.c_str(), rounds.size(), sims.size(),
              100 * ratio(share_machine, total), 100 * ratio(core, total),
              100 * ratio(share_workloads, total),
              100 * ratio(share_telemetry, total),
              100 * ratio(replay_pipeline, total));
  return m;
}

}  // namespace perfbench

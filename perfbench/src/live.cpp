// Workload definitions and the untraced run (end-to-end metrics).
#include <cstdio>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "bench_util.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/latency_report.hpp"

namespace perfbench {

using namespace lssim;

namespace {

// Sizes, chosen so that a 25-second run holds 28 to 110 rounds (every
// simulation at both derived seeds) on a 4-core host. The OLTP workloads,
// whose timings swing most with the host, get 80 or more rounds, so their
// tail is p87 or higher and sits in the host's slow mode. Larger OLTP runs
// touch more simulated blocks, and their timings swing more with
// contention for the host's shared cache: across runs oltp4's throughput
// spread about twice as wide at 6000 txns/proc as at 2000.
// oltp4_observed is smaller still because its telemetry artifacts are
// built as a JSON tree in memory; at 2000 txns/proc tree and text reached
// 200 MiB. At 2000 txns/proc replay_oltp held only 27 rounds, and its
// p61 tail spread by 25% across runs.
constexpr int kOltpTxns = 2000;         // oltp4: ~0.3 s per round.
constexpr int kOltpReplayTxns = 500;    // replay_oltp: ~0.25 s per round.
constexpr int kOltpObservedTxns = 500;  // oltp4_observed: ~0.26 s.
constexpr int kStencilNodes = 128;
constexpr int kSeedsPerRun = 2;

Sim oltp_sim(ProtocolKind kind, int txns, std::uint64_t seed) {
  OltpParams params;
  params.txns_per_proc = txns;
  Sim sim;
  sim.key = "oltp/t" + std::to_string(txns) + "/4n-full-map/" +
            to_string(kind) + "@" + std::to_string(seed);
  sim.cfg = bench::oltp_bench_config(kind);  // The fig7 machine.
  sim.build = [params](System& sys) { build_oltp(sys, params); };
  sim.seed = seed;
  return sim;
}

Sim stencil_sim(std::uint64_t seed) {
  // 128 nodes need more than full-map's 64 presence bits; one grid row
  // per node keeps the run short while the scheduler scans 128 nodes.
  StencilParams params;
  params.width = 64;
  params.height = kStencilNodes;
  params.sweeps = 1;
  Sim sim;
  sim.key = "stencil/w64h128s1/128n-limited-ptr/LS@" + std::to_string(seed);
  sim.cfg = MachineConfig::scientific_default(ProtocolKind::kLs, kStencilNodes);
  sim.cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  sim.build = [params](System& sys) { build_stencil(sys, params); };
  sim.seed = seed;
  return sim;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// An ostream target that appends to a string which keeps its capacity
/// from one simulation to the next. Writing a file goes through a fixed
/// buffer too; a fresh ostringstream per artifact would instead time the
/// host's page faults as it grows.
class ReusedBuffer : public std::streambuf {
 public:
  explicit ReusedBuffer(std::string& out) : out_(out) {
    out_.clear();
    setp(chunk_, chunk_ + sizeof(chunk_));
  }
  ~ReusedBuffer() override { sync(); }
  ReusedBuffer(const ReusedBuffer&) = delete;
  ReusedBuffer& operator=(const ReusedBuffer&) = delete;

 protected:
  int sync() override {
    out_.append(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(chunk_, chunk_ + sizeof(chunk_));
    return 0;
  }
  int_type overflow(int_type ch) override {
    sync();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  std::string& out_;
  char chunk_[1 << 16];
};

/// Serialises every telemetry artifact lssim_run can write, to memory,
/// and cross-checks the metrics against the run's own counters.
void export_artifacts(System& sys, const Sim& sim, LiveRun* out) {
  // Perfetto trace, audit trail, latency report, metrics, manifest.
  static std::string artifacts[5];
  const Telemetry& telemetry = sys.telemetry();
  const char* protocol = to_string(sim.cfg.protocol.kind);
  const auto begin = Clock::now();
  const MetricsSnapshot snapshot = telemetry.registry().snapshot();
  {
    ReusedBuffer perfetto_buf(artifacts[0]);
    std::ostream perfetto(&perfetto_buf);
    write_chrome_trace(perfetto, {TraceProcess{
                                     protocol, &telemetry.coherence_trace(),
                                     nullptr}});
    ReusedBuffer audit_buf(artifacts[1]);
    std::ostream audit(&audit_buf);
    write_audit_jsonl(audit, telemetry.audit_log(), protocol);
    ReusedBuffer latency_buf(artifacts[2]);
    std::ostream latency(&latency_buf);
    latency_report_to_json("oltp", sim.seed,
                           {LatencyReportRun{protocol, &snapshot}})
        .write(latency, 0);
    ReusedBuffer metrics_buf(artifacts[3]);
    std::ostream metrics(&metrics_buf);
    snapshot_to_json(snapshot).write(metrics, 0);
    RunManifest manifest;
    manifest.generator = "lssim perfbench";
    manifest.workload = "oltp";
    manifest.seed = sim.seed;
    manifest.machine = sim.cfg;
    manifest.runs.push_back(RunManifest::ProtocolRun{out->result, snapshot});
    ReusedBuffer manifest_buf(artifacts[4]);
    std::ostream manifest_text(&manifest_buf);
    write_manifest(manifest_text, manifest);
  }
  out->export_s = seconds_between(begin, Clock::now());

  const CoherenceTrace& trace = telemetry.coherence_trace();
  out->events = trace.spans().size() + trace.instants().size();
  out->audit_records = telemetry.audit_log().total();
  const auto agree = [out](const char* what, std::uint64_t metric,
                           std::uint64_t counter) {
    if (metric != counter) {
      out->artifact_problems.push_back(
          std::string(what) + ": metrics " + std::to_string(metric) +
          ", run result " + std::to_string(counter));
    }
  };
  agree("coherence.read-miss", snapshot.counter_total("coherence.read-miss"),
        out->result.global_read_misses);
  agree("coherence.upgrade", snapshot.counter_total("coherence.upgrade"),
        out->result.ownership_acquisitions);
  agree("trace events dropped", trace.dropped(), 0);
  agree("audit records overwritten",
        telemetry.audit_log().total() - telemetry.audit_log().size(), 0);
  for (const std::string& artifact : artifacts) {
    if (artifact.empty()) {
      out->artifact_problems.push_back("an exported artifact is empty");
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "oltp4", "stencil128", "replay_oltp", "oltp4_observed"};
  return names;
}

std::vector<std::uint64_t> sim_seeds(std::uint64_t workload_seed) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kSeedsPerRun; ++i) {
    // 32 bits keep digest keys short; any value is a valid processor seed.
    seeds.push_back(
        splitmix64(workload_seed * kSeedsPerRun + static_cast<unsigned>(i)) >>
        32);
  }
  return seeds;
}

std::vector<Sim> round_sims(const std::string& workload,
                            std::uint64_t sim_seed) {
  if (workload == "oltp4") {
    return {oltp_sim(ProtocolKind::kBaseline, kOltpTxns, sim_seed),
            oltp_sim(ProtocolKind::kAd, kOltpTxns, sim_seed),
            oltp_sim(ProtocolKind::kLs, kOltpTxns, sim_seed)};
  }
  if (workload == "stencil128") {
    return {stencil_sim(sim_seed)};
  }
  if (workload == "replay_oltp") {
    return {oltp_sim(ProtocolKind::kLs, kOltpReplayTxns, sim_seed)};
  }
  if (workload == "oltp4_observed") {
    // Same key as the telemetry-off simulation: observing a run must not
    // change one statistic.
    Sim sim = oltp_sim(ProtocolKind::kLs, kOltpObservedTxns, sim_seed);
    // Capacities hold every event and audit record of the run (the
    // exporter checks that none is dropped) without reserving much more:
    // the audit ring reserves its whole capacity up front.
    sim.cfg.telemetry.metrics = true;
    sim.cfg.telemetry.trace_capacity = std::size_t{1} << 17;
    sim.cfg.telemetry.audit_capacity = std::size_t{1} << 14;
    return {sim};
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

std::string replay_key(const Sim& capture, ProtocolKind protocol) {
  return "replay/" + capture.key + "/" + to_string(protocol);
}

LiveRun run_live(const Sim& sim, const System::AccessObserver& observer) {
  LiveRun out;
  const auto t0 = Clock::now();
  System sys(sim.cfg, sim.seed);
  const auto t1 = Clock::now();
  sim.build(sys);
  const auto t2 = Clock::now();
  if (observer) sys.add_access_observer(observer);
  sys.run();
  const auto t3 = Clock::now();
  out.result = collect(sys);
  const auto t4 = Clock::now();
  out.construct_s = seconds_between(t0, t1);
  out.build_s = seconds_between(t1, t2);
  out.run_s = seconds_between(t2, t3);
  out.collect_s = seconds_between(t3, t4);
  if (sys.timed_out()) {
    out.artifact_problems.push_back("simulation hit the max_cycles watchdog");
  }
  if (sim.cfg.telemetry.any()) {
    export_artifacts(sys, sim, &out);
  }
  return out;
}

ReplaySetup run_replay_round(
    const Sim& capture, Checker& checker,
    const std::function<void(double seconds, std::uint64_t accesses)>& cell) {
  ReplaySetup setup;
  const auto t0 = Clock::now();
  const CapturedTrace captured =
      capture_trace(capture.cfg, capture.build, capture.seed, "oltp");
  // One buffer for every round, reserved to the trace's size, so peak
  // memory follows the trace and not where a doubling buffer happened to
  // stop. The v2.1 format stores 41 bytes per record.
  static std::string bytes;
  bytes.reserve(captured.trace.size() * 48 + (1 << 16));
  const auto t1 = Clock::now();
  {
    ReusedBuffer target(bytes);
    std::ostream os(&target);
    captured.trace.save(os);
  }
  const auto t2 = Clock::now();
  std::istringstream source(std::move(bytes));
  const Trace loaded = Trace::load(source);
  const auto t3 = Clock::now();
  bytes = std::move(source).str();
  const ReplayCompareEngine engine(loaded, capture.cfg);
  const auto t4 = Clock::now();
  setup.capture_s = seconds_between(t0, t1);
  setup.save_s = seconds_between(t1, t2);
  setup.load_s = seconds_between(t2, t3);
  setup.engine_s = seconds_between(t3, t4);
  setup.bytes = bytes.size();

  checker.check(capture.key, captured.executed,
                [capture] { return run_live(capture).result; });
  checker.expect(capture.key + " trace save/load round trip",
                 loaded == captured.trace
                     ? std::vector<std::string>{}
                     : std::vector<std::string>{"loaded trace differs"});
  for (ProtocolKind kind : all_protocol_kinds()) {
    const auto begin = Clock::now();
    const RunResult replayed = engine.replay(kind);
    cell(seconds_between(begin, Clock::now()), replayed.accesses);
    checker.check(replay_key(capture, kind), replayed, [capture, kind] {
      const CapturedTrace again =
          capture_trace(capture.cfg, capture.build, capture.seed, "oltp");
      return ReplayCompareEngine(again.trace, capture.cfg).replay(kind);
    });
    if (kind == capture.cfg.protocol.kind) {
      checker.expect(capture.key + " same-protocol replay vs live",
                     compare_replay(captured.executed, replayed));
    }
  }
  return setup;
}

MetricList run_untraced(const std::string& workload,
                        std::uint64_t workload_seed, double seconds,
                        Checker& checker) {
  const std::vector<std::uint64_t> seeds = sim_seeds(workload_seed);

  // One sample per round, and a round runs every simulation of the run:
  // the Baseline/AD/LS rotation on oltp4, the ten replay cells on
  // replay_oltp, one simulation elsewhere, each at every derived seed.
  // Rounds are then alike, so their quantiles are steady. Quantiles over
  // a mix of protocols or seeds would jump between their clusters: with
  // one seed per round, oltp4's per-round times formed two equal clusters
  // and their median flipped between them from run to run.
  struct RoundTime {
    double setup_s = 0;  // Per simulation, or per capture on replay_oltp.
    double busy_s = 0;   // run + collect + export, or replay cells.
    std::uint64_t accesses = 0;
    std::size_t sims = 0;
  };
  const auto run_round = [&] {
    RoundTime t;
    std::size_t setups = 0;
    for (std::uint64_t seed : seeds) {
      if (workload == "replay_oltp") {
        const ReplaySetup s = run_replay_round(
            round_sims(workload, seed).front(), checker,
            [&t](double cell_s, std::uint64_t n) {
              t.busy_s += cell_s;
              t.accesses += n;
              t.sims += 1;
            });
        t.setup_s += s.capture_s + s.save_s + s.load_s + s.engine_s;
        setups += 1;
        continue;
      }
      for (const Sim& sim : round_sims(workload, seed)) {
        const LiveRun run = run_live(sim);
        checker.check(sim.key, run.result,
                      [sim] { return run_live(sim).result; });
        if (sim.cfg.telemetry.any() || !run.artifact_problems.empty()) {
          checker.expect(sim.key + " run health", run.artifact_problems);
        }
        t.setup_s += run.construct_s + run.build_s;
        setups += 1;
        t.busy_s += run.run_s + run.collect_s + run.export_s;
        t.accesses += run.result.accesses;
        t.sims += 1;
      }
    }
    t.setup_s /= static_cast<double>(setups);
    return t;
  };

  CpuRotation cpus;
  (void)run_round();  // Untimed warm-up.
  std::vector<double> setup;
  std::vector<double> wall;        // Host seconds per simulation, per round.
  std::vector<double> per_access;  // Host seconds per access, per round.
  double busy_s = 0;
  double accesses = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    cpus.next();
    const RoundTime t = run_round();
    setup.push_back(t.setup_s);
    wall.push_back(t.busy_s / static_cast<double>(t.sims));
    per_access.push_back(t.busy_s / static_cast<double>(t.accesses));
    busy_s += t.busy_s;
    accesses += static_cast<double>(t.accesses);
  }
  checker.repeat_unrecorded();

  // Both timings are read at the tail. Each vCPU of the host swings by
  // about half between a fast and a slow mode, which last from a fraction
  // of a second to over a minute, and the vCPUs swing independently. The
  // rotation gives every vCPU the same share of rounds; without it, a run
  // that stayed on one fast vCPU had a median round time a third below
  // the others'. The share of fast rounds in a run is still chance, so a run's
  // median or total rate jumps with it. The slow mode is a floor that
  // every run reaches, and the tail sits in it.
  const Tail tail = tail_of(wall);
  const Tail slow = tail_of(per_access);
  std::printf("perfbench: %s: %zu rounds timed; tails at p%d of %zu samples "
              "(%zu beyond); sim_wall_s median %.6g s; accesses_per_s over "
              "the whole run %.6g\n",
              workload.c_str(), wall.size(), tail.percentile, tail.samples,
              tail.beyond, median(wall), busy_s > 0 ? accesses / busy_s : 0.0);
  MetricList m;
  m.add("accesses_per_s", slow.value > 0 ? 1.0 / slow.value : 0.0, "1/s");
  m.add("sim_wall_s_tail", tail.value, "s");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  return m;
}

void record_digests(const std::string& workload, std::uint64_t first_seed,
                    std::uint64_t last_seed) {
  std::set<std::string> printed;
  const auto print = [&printed](const std::string& key, const RunResult& r) {
    if (printed.insert(key).second) {
      std::printf("%s %016llx\n", key.c_str(),
                  static_cast<unsigned long long>(digest(r)));
    }
  };
  for (std::uint64_t ws = first_seed; ws <= last_seed; ++ws) {
    for (std::uint64_t seed : sim_seeds(ws)) {
      for (Sim sim : round_sims(workload, seed)) {
        sim.cfg.telemetry = TelemetryConfig{};  // Recorded unobserved.
        print(sim.key, run_live(sim).result);
        if (workload == "replay_oltp") {
          const CapturedTrace captured =
              capture_trace(sim.cfg, sim.build, sim.seed, "oltp");
          const ReplayCompareEngine engine(captured.trace, sim.cfg);
          for (ProtocolKind kind : all_protocol_kinds()) {
            print(replay_key(sim, kind), engine.replay(kind));
          }
        }
      }
    }
  }
}

}  // namespace perfbench

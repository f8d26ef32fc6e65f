// Spin parking is a host-side shortcut: a parked spinner's probes are
// accounted in bulk instead of issued one by one, and nothing simulated
// may change. Attaching an access observer turns parking off (the
// observer must see every probe), so every case here runs twice — once
// with a no-op observer, once without — and requires identical results,
// plus proof that the unobserved run really parked.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/protocol_registry.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "telemetry/manifest.hpp"
#include "workloads/harness.hpp"

namespace lssim {
namespace {

/// Everything a run leaves behind that parking could plausibly disturb.
struct Outcome {
  RunResult result;     ///< collect(): every RunResult field.
  std::string metrics;  ///< Metrics snapshot JSON (telemetry on), else "".
  std::vector<Cycles> per_proc;  ///< busy, read stall, write stall.
  /// sys.read_latency / sys.write_latency buckets, samples and sums.
  std::vector<std::uint64_t> latency;
  std::uint64_t caches = 0;  ///< Digest of every line, LRU stamps included.
  bool timed_out = false;
  std::uint64_t bulk_probes = 0;
};

/// Runs with metrics on: the latency histograms live in the registry.
Outcome run_case(const MachineConfig& cfg, const WorkloadBuilder& build,
                 bool observed) {
  MachineConfig metered = cfg;
  metered.telemetry.metrics = true;
  System sys(metered, 1);
  build(sys);
  if (observed) {
    sys.add_access_observer([](NodeId, const AccessRequest&, Cycles,
                               Cycles) {});
  }
  sys.run();
  Outcome out;
  out.result = collect(sys);
  const MetricsSnapshot snap = sys.telemetry().registry().snapshot();
  if (cfg.telemetry.metrics) {
    out.metrics = snapshot_to_json(snap).dump();
  }
  for (const TimeBreakdown& tb : sys.stats().per_proc) {
    out.per_proc.insert(out.per_proc.end(),
                        {tb.busy, tb.read_stall, tb.write_stall});
  }
  for (const char* name : {"sys.read_latency", "sys.write_latency"}) {
    const HistogramData& h = *snap.histogram(name);
    out.latency.insert(out.latency.end(), h.counts.begin(), h.counts.end());
    out.latency.push_back(h.samples);
    out.latency.push_back(h.sum);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (int n = 0; n < sys.num_procs(); ++n) {
    const CacheHierarchy& ch = sys.memory().cache(static_cast<NodeId>(n));
    for (const Cache* c : {&ch.l1(), &ch.l2()}) {
      c->for_each_valid([&mix, c](const CacheLine& line) {
        mix(line.block);
        mix(static_cast<std::uint64_t>(line.state));
        mix(c->last_use(line));
      });
    }
  }
  out.caches = h;
  out.timed_out = sys.timed_out();
  out.bulk_probes = sys.bulk_probes();
  return out;
}

/// Runs `build` observed and unobserved; both must agree exactly.
/// Returns the probes the unobserved run accounted in bulk.
std::uint64_t parked_probes(const MachineConfig& cfg,
                            const WorkloadBuilder& build,
                            const std::string& label) {
  const Outcome parked = run_case(cfg, build, false);
  const Outcome observed = run_case(cfg, build, true);
  EXPECT_EQ(observed.bulk_probes, 0u) << label;
  EXPECT_TRUE(parked.result == observed.result) << label;
  EXPECT_EQ(parked.metrics, observed.metrics) << label;
  EXPECT_EQ(parked.per_proc, observed.per_proc) << label;
  EXPECT_EQ(parked.latency, observed.latency) << label;
  EXPECT_EQ(parked.caches, observed.caches) << label;
  EXPECT_EQ(parked.timed_out, observed.timed_out) << label;
  return parked.bulk_probes;
}

WorkloadBuilder driver_builder(const std::string& workload,
                               std::map<std::string, std::string> params) {
  DriverOptions options;
  options.workload = workload;
  options.params = std::move(params);
  return make_driver_builder(options);
}

struct SmallWorkload {
  const char* name;
  std::map<std::string, std::string> params;
};

/// Every driver workload, sized to finish in milliseconds.
const std::vector<SmallWorkload>& small_workloads() {
  static const std::vector<SmallWorkload> kWorkloads = {
      {"mp3d", {{"particles", "400"}, {"steps", "2"}}},
      {"cholesky", {{"n", "40"}, {"bandwidth", "16"}}},
      {"lu", {{"n", "24"}}},
      {"oltp",
       {{"txns_per_proc", "60"},
        {"accounts", "4096"},
        {"hot_accounts", "512"},
        {"branches", "4"}}},
      {"radix", {{"keys", "1024"}}},
      {"stencil", {{"width", "16"}, {"height", "16"}, {"sweeps", "2"}}},
      {"pingpong", {{"rounds", "40"}}},
      {"private", {{"words_per_proc", "256"}, {"sweeps", "2"}}},
      {"readmostly", {{"words", "128"}, {"rounds", "10"}}},
  };
  return kWorkloads;
}

MachineConfig machine_for(const std::string& workload, ProtocolKind kind,
                          int nodes = 4) {
  return workload == "oltp" ? MachineConfig::oltp_default(kind, nodes)
                            : MachineConfig::scientific_default(kind, nodes);
}

TEST(SpinPark, EveryWorkloadUnderEveryProtocol) {
  for (const SmallWorkload& w : small_workloads()) {
    const WorkloadBuilder build = driver_builder(w.name, w.params);
    std::uint64_t workload_bulk = 0;
    for (const ProtocolKind kind : all_protocol_kinds()) {
      const std::string label =
          std::string(w.name) + "/" + to_string(kind);
      const std::uint64_t bulk =
          parked_probes(machine_for(w.name, kind), build, label);
      if (kind == ProtocolKind::kIls) {
        // ILS trains on every access: parking must stay off.
        EXPECT_EQ(bulk, 0u) << label;
      }
      workload_bulk += bulk;
    }
    EXPECT_GT(workload_bulk, 0u) << w.name << " never parked";
  }
}

TEST(SpinPark, EveryDirectoryOnNetworkAndBus) {
  const WorkloadBuilder oltp = driver_builder(
      "oltp",
      {{"txns_per_proc", "80"},
       {"accounts", "4096"},
       {"hot_accounts", "512"},
       {"branches", "8"}});
  const WorkloadBuilder stencil = driver_builder(
      "stencil", {{"width", "32"}, {"height", "32"}, {"sweeps", "2"}});
  for (const DirectoryKind dir :
       {DirectoryKind::kFullMap, DirectoryKind::kLimitedPtr,
        DirectoryKind::kCoarseVector, DirectoryKind::kSparse}) {
    for (const InterconnectKind net :
         {InterconnectKind::kNetwork, InterconnectKind::kBus}) {
      for (const ProtocolKind kind :
           {ProtocolKind::kBaseline, ProtocolKind::kLs, ProtocolKind::kMoesi,
            ProtocolKind::kDragon}) {
        const std::string label = std::string(to_string(dir)) + "/" +
                                  to_string(net) + "/" +
                                  to_string(kind);
        MachineConfig cfg = MachineConfig::oltp_default(kind, 8);
        cfg.directory_scheme = dir;
        cfg.interconnect = net;
        cfg.directory_pointers = 2;   // Limited-ptr overflows.
        cfg.directory_region = 2;     // Coarse regions cover two nodes.
        cfg.directory_entries = 256;  // Sparse evicts.
        EXPECT_GT(parked_probes(cfg, oltp, "oltp/" + label), 0u) << label;
        MachineConfig sci = MachineConfig::scientific_default(kind, 8);
        sci.directory_scheme = dir;
        sci.interconnect = net;
        sci.directory_pointers = 2;
        sci.directory_region = 2;
        sci.directory_entries = 64;
        EXPECT_GT(parked_probes(sci, stencil, "stencil/" + label), 0u)
            << label;
      }
    }
  }
}

TEST(SpinPark, ScAndPc) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kPc}) {
    const char* model_name = model == ConsistencyModel::kPc ? "PC" : "SC";
    std::uint64_t model_bulk = 0;
    for (const SmallWorkload& w : small_workloads()) {
      for (const ProtocolKind kind :
           {ProtocolKind::kBaseline, ProtocolKind::kLs}) {
        MachineConfig cfg = machine_for(w.name, kind);
        cfg.consistency = model;
        cfg.write_buffer_depth = 2;
        const std::string label = std::string(w.name) + "/" +
                                  to_string(kind) + "/" + model_name;
        const std::uint64_t bulk =
            parked_probes(cfg, driver_builder(w.name, w.params), label);
        if (w.name == std::string("oltp") ||
            w.name == std::string("pingpong")) {
          EXPECT_GT(bulk, 0u) << label;  // Lock and turn spins.
        }
        model_bulk += bulk;
      }
    }
    EXPECT_GT(model_bulk, 0u) << model_name;
  }
}

TEST(SpinPark, TelemetryMetricsAndArtifactsAgree) {
  // Metrics take the bulk-accounted probes as counted adds/observes.
  for (const ProtocolKind kind : {ProtocolKind::kLs, ProtocolKind::kDragon}) {
    MachineConfig cfg = MachineConfig::oltp_default(kind);
    cfg.telemetry.metrics = true;
    cfg.telemetry.trace_capacity = 4096;
    cfg.telemetry.audit_capacity = 4096;
    EXPECT_GT(parked_probes(cfg,
                            driver_builder("oltp", {{"txns_per_proc", "60"},
                                                    {"accounts", "4096"},
                                                    {"hot_accounts", "512"},
                                                    {"branches", "4"}}),
                            to_string(kind)),
              0u);
  }
}

TEST(SpinPark, StencilAt128Nodes) {
  MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kLs, 128);
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  const std::uint64_t bulk = parked_probes(
      cfg,
      driver_builder("stencil",
                     {{"width", "32"}, {"height", "128"}, {"sweeps", "2"}}),
      "stencil/128");
  EXPECT_GT(bulk, 10000u);
}

TEST(SpinPark, IneligibleMachinesNeverPark) {
  const WorkloadBuilder build = driver_builder("pingpong", {{"rounds", "40"}});
  MachineConfig classify =
      MachineConfig::scientific_default(ProtocolKind::kLs);
  classify.classify_false_sharing = true;
  MachineConfig assoc_l2 =
      MachineConfig::scientific_default(ProtocolKind::kLs);
  assoc_l2.l2.assoc = 2;
  MachineConfig checked =
      MachineConfig::scientific_default(ProtocolKind::kLs);
  checked.check_invariants = true;
  MachineConfig plain = MachineConfig::scientific_default(ProtocolKind::kLs);
  for (const MachineConfig* cfg : {&classify, &assoc_l2, &checked}) {
    EXPECT_EQ(run_case(*cfg, build, false).bulk_probes, 0u);
  }
  EXPECT_GT(run_case(plain, build, false).bulk_probes, 0u);
}

/// Node 0 spins on a flag; node 1 reads the flag's block `reads` times,
/// each a global read miss (a read of a block that maps to the same
/// direct-mapped L2 set evicts node 1's copy in between), then sets the
/// flag.
void build_reader_and_spinner(System& sys, int reads) {
  const std::uint32_t l2_bytes = sys.config().l2.size_bytes;
  const Addr flag = sys.heap().alloc(l2_bytes + 16, 16);
  sys.spawn(0, [](System& s, Addr f) -> SimTask<void> {
    co_await s.proc(0).spin_until(f, 1, 10, 10, 8);
  }(sys, flag));
  sys.spawn(1, [](System& s, Addr f, Addr conflict, int n) -> SimTask<void> {
    Processor& p = s.proc(1);
    for (int i = 0; i < n; ++i) {
      p.compute(200);
      (void)co_await p.read(f + 8, 8);
      (void)co_await p.read(conflict, 8);
    }
    co_await p.write(f, 1, 8);
  }(sys, flag, flag + l2_bytes, reads));
}

TEST(SpinPark, RemoteReadOfASharedCopyDoesNotWake) {
  // None of node 1's read misses changes node 0's Shared copy, so node 0
  // stays parked until the write. Waking on every transaction to the
  // block would issue a probe per read.
  constexpr int kReads = 50;
  const WorkloadBuilder build = [](System& sys) {
    build_reader_and_spinner(sys, kReads);
  };
  const MachineConfig cfg =
      MachineConfig::scientific_default(ProtocolKind::kBaseline);
  const std::uint64_t bulk = parked_probes(cfg, build, "reader");
  System sys(cfg, 1);
  build(sys);
  sys.run();
  EXPECT_EQ(sys.stats().global_read_misses, 2u * kReads + 2);
  const std::uint64_t probes = sys.stats().accesses - (2 * kReads + 1);
  EXPECT_GT(probes, 1000u);
  EXPECT_LT(probes - bulk, 5u) << "probes issued one at a time";
}

}  // namespace
}  // namespace lssim

// perf_baseline — times the full figure suite (fig3–fig7 plus the §5.5
// ablation matrix) and emits a machine-readable BENCH_results.json, the
// repo's perf-trajectory data point. For every figure it measures the
// serial wall clock per simulation, then re-runs the whole suite fanned
// out across --jobs host threads and cross-checks that every run's
// exec-cycle count is identical — the determinism guarantee of
// exec/parallel_executor.hpp, enforced on every baseline capture.
//
//   perf_baseline [--jobs N] [--out FILE] [--quick] [--reps N]
//                 [--note TEXT]...
//
//   --jobs N   worker threads for the parallel pass (default: all cores)
//   --out F    output path (default BENCH_results.json; "-" = stdout)
//   --quick    CI-sized workloads (~seconds instead of minutes)
//   --reps N   repetitions of each replay-compare sweep; the minimum
//              wall clock per side is recorded (default 3 — shared
//              hosts jitter individual passes by tens of percent)
//   --note T   append a provenance note to the document (repeatable) —
//              e.g. a measured comparison against an older build
//
// It also measures the capture-once / replay-many engine: per workload,
// a full registered-protocol sweep executed live vs replayed from one
// captured trace (the `replay_compare` array in the JSON), gated on the
// same-protocol replay being bit-identical to its live execution and on
// the --jobs fan-out of the replay matrix matching the serial replay
// cell by cell.
//
// Compare two baselines with tools/bench_compare.py. Exit codes: 0 ok,
// 1 determinism violation (parallel != serial cycles) or replay
// disagreement, 3 output failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace lssim;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// HEAD commit of the working tree the benchmark ran from, for the
/// baseline's provenance fields ("unknown" outside a git checkout —
/// tools/bench_compare.py warns when comparing across commits).
std::string git_commit() {
  std::string commit = "unknown";
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (line.size() == 40 &&
          line.find_first_not_of("0123456789abcdef") == std::string::npos) {
        commit = line;
      }
    }
    pclose(pipe);
  }
  return commit;
}

/// One independent simulation of the suite.
struct RunSpec {
  std::string figure;
  std::string label;
  MachineConfig cfg;
  WorkloadBuilder build;
};

/// §5.5 protocol variants, as in ablation_variations.cpp.
struct VariantSpec {
  const char* name;
  ProtocolKind kind;
  bool default_tagged = false;
  bool keep_tag_on_lone_write = false;
  std::uint8_t tag_hyst = 1;
  std::uint8_t detag_hyst = 1;
};

constexpr VariantSpec kAblationVariants[] = {
    {"Baseline", ProtocolKind::kBaseline},
    {"LS", ProtocolKind::kLs},
    {"LS+default-tag", ProtocolKind::kLs, true},
    {"LS+keep-lone", ProtocolKind::kLs, false, true},
    {"LS+tag-hyst2", ProtocolKind::kLs, false, false, 2, 1},
    {"LS+detag-hyst2", ProtocolKind::kLs, false, false, 1, 2},
    {"AD", ProtocolKind::kAd},
    {"AD+default-tag", ProtocolKind::kAd, true},
    {"LS+AD", ProtocolKind::kLsAd},
    {"LS+AD+keep-lone", ProtocolKind::kLsAd, false, true},
};

void add_protocol_sweep(std::vector<RunSpec>* suite, const char* figure,
                        const MachineConfig& cfg,
                        const WorkloadBuilder& build) {
  for (ProtocolKind kind : bench::kAllProtocols) {
    MachineConfig run_cfg = cfg;
    run_cfg.protocol.kind = kind;
    suite->push_back(RunSpec{figure, to_string(kind), run_cfg, build});
  }
}

void add_ablations(std::vector<RunSpec>* suite, const char* figure,
                   const MachineConfig& cfg, const WorkloadBuilder& build) {
  for (const VariantSpec& v : kAblationVariants) {
    MachineConfig run_cfg = cfg;
    run_cfg.protocol = ProtocolConfig{};
    run_cfg.protocol.kind = v.kind;
    run_cfg.protocol.default_tagged = v.default_tagged;
    run_cfg.protocol.keep_tag_on_lone_write = v.keep_tag_on_lone_write;
    run_cfg.protocol.tag_hysteresis = v.tag_hyst;
    run_cfg.protocol.detag_hysteresis = v.detag_hyst;
    suite->push_back(RunSpec{figure, v.name, run_cfg, build});
  }
}

std::vector<RunSpec> build_suite(bool quick) {
  std::vector<RunSpec> suite;

  Mp3dParams mp3d;
  if (quick) {
    mp3d.particles = 2000;
    mp3d.steps = 3;
  }
  add_protocol_sweep(&suite, "fig3_mp3d",
                     MachineConfig::scientific_default(),
                     [mp3d](System& sys) { build_mp3d(sys, mp3d); });

  CholeskyParams chol;
  if (quick) {
    chol.n = 200;
    chol.bandwidth = 32;
  }
  add_protocol_sweep(&suite, "fig4_cholesky",
                     MachineConfig::scientific_default(),
                     [chol](System& sys) { build_cholesky(sys, chol); });

  for (int procs : quick ? std::vector<int>{4, 8}
                         : std::vector<int>{4, 16, 32}) {
    CholeskyParams p;
    p.n = quick ? 200 : 600;
    p.bandwidth = quick ? 32 : 64;
    add_protocol_sweep(
        &suite,
        ("fig5_cholesky_" + std::to_string(procs) + "p").c_str(),
        MachineConfig::scientific_default(ProtocolKind::kBaseline, procs),
        [p](System& sys) { build_cholesky(sys, p); });
  }

  LuParams lu;
  if (quick) {
    lu.n = 96;
  }
  add_protocol_sweep(&suite, "fig6_lu", MachineConfig::scientific_default(),
                     [lu](System& sys) { build_lu(sys, lu); });

  OltpParams oltp;
  if (quick) {
    oltp.txns_per_proc = 300;
  }
  add_protocol_sweep(&suite, "fig7_oltp", bench::oltp_bench_config(),
                     [oltp](System& sys) { build_oltp(sys, oltp); });

  Mp3dParams mp3d_abl;
  mp3d_abl.particles = quick ? 2000 : 4000;
  mp3d_abl.steps = quick ? 3 : 6;
  add_ablations(&suite, "ablation_mp3d", MachineConfig::scientific_default(),
                [mp3d_abl](System& sys) { build_mp3d(sys, mp3d_abl); });

  OltpParams oltp_abl;
  oltp_abl.txns_per_proc = quick ? 300 : 1200;
  add_ablations(&suite, "ablation_oltp", bench::oltp_bench_config(),
                [oltp_abl](System& sys) { build_oltp(sys, oltp_abl); });

  return suite;
}

struct RunTiming {
  double seconds = 0.0;
  RunResult result;
};

/// One workload for the capture-once / replay-many measurement: a full
/// registered-protocol sweep executed live vs driven from one captured
/// trace (same sizes as the corresponding figure entries above).
struct ReplaySpec {
  const char* name;
  MachineConfig cfg;
  WorkloadBuilder build;
};

std::vector<ReplaySpec> build_replay_suite(bool quick) {
  std::vector<ReplaySpec> suite;

  Mp3dParams mp3d;
  if (quick) {
    mp3d.particles = 2000;
    mp3d.steps = 3;
  }
  suite.push_back({"fig3_mp3d", MachineConfig::scientific_default(),
                   [mp3d](System& sys) { build_mp3d(sys, mp3d); }});

  LuParams lu;
  if (quick) {
    lu.n = 96;
  }
  suite.push_back({"fig6_lu", MachineConfig::scientific_default(),
                   [lu](System& sys) { build_lu(sys, lu); }});

  OltpParams oltp;
  if (quick) {
    oltp.txns_per_proc = 300;
  }
  suite.push_back({"fig7_oltp", bench::oltp_bench_config(),
                   [oltp](System& sys) { build_oltp(sys, oltp); }});

  return suite;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lssim;

  int jobs = default_jobs();
  std::string out_path = "BENCH_results.json";
  bool quick = false;
  int reps = 3;
  std::vector<std::string> notes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--note") == 0 && i + 1 < argc) {
      notes.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_baseline [--jobs N] [--out FILE] [--quick] "
                   "[--reps N] [--note TEXT]...\n");
      return 2;
    }
  }
  if (jobs <= 0) {
    jobs = default_jobs();
  }
  if (reps <= 0) {
    reps = 1;
  }

  const std::vector<RunSpec> suite = build_suite(quick);
  std::fprintf(stderr, "perf_baseline: %zu simulations, parallel pass at "
               "--jobs %d%s\n", suite.size(), jobs, quick ? " (quick)" : "");
  // Serial pass: per-run wall clock, one simulation at a time.
  std::vector<RunTiming> serial(suite.size());
  const auto serial_start = Clock::now();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto start = Clock::now();
    serial[i].result =
        run_experiment(suite[i].cfg, suite[i].build, /*seed=*/1);
    serial[i].seconds = seconds_since(start);
  }
  const double serial_seconds = seconds_since(serial_start);

  // Parallel pass: the whole suite fanned out across `jobs` threads.
  const auto parallel_start = Clock::now();
  const std::vector<RunResult> parallel = parallel_map<RunResult>(
      suite.size(), jobs, [&suite](std::size_t i) {
        return run_experiment(suite[i].cfg, suite[i].build, /*seed=*/1);
      });
  const double parallel_seconds = seconds_since(parallel_start);

  // Determinism cross-check: a parallel run must not change one cycle.
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (parallel[i].exec_time != serial[i].result.exec_time ||
        parallel[i].traffic_total != serial[i].result.traffic_total) {
      std::fprintf(stderr,
                   "perf_baseline: DETERMINISM VIOLATION in %s/%s: "
                   "serial %llu cycles, parallel %llu cycles\n",
                   suite[i].figure.c_str(), suite[i].label.c_str(),
                   static_cast<unsigned long long>(serial[i].result.exec_time),
                   static_cast<unsigned long long>(parallel[i].exec_time));
      return 1;
    }
  }

  // Capture-once / replay-many pass (docs/PERFORMANCE.md): per workload,
  // time a full registered-protocol sweep executed live, then the same
  // sweep driven from one captured access stream, and gate on the
  // same-protocol replay being bit-identical to its live execution and
  // on the parallel replay matrix equalling the serial replay.
  //
  // Accounting: `speedup` is execute-sweep over replay-sweep wall clock —
  // the steady-state ratio of the capture-once / replay-many workflow,
  // where one capture (recorded separately as capture_seconds) serves
  // every later sweep. `speedup_with_capture` folds the capture into the
  // replay side: the ratio for a one-shot compare that starts from
  // nothing. Each sweep runs `reps` times and the minimum per side is
  // kept — wall-clock minima are the standard noise filter on shared
  // hosts, and both sides get the same treatment.
  const std::vector<ProtocolKind> all_kinds = all_protocol_kinds();
  Json::Array replay_docs;
  for (const ReplaySpec& spec : build_replay_suite(quick)) {
    const auto capture_start = Clock::now();
    const CapturedTrace captured =
        capture_trace(spec.cfg, spec.build, /*seed=*/1, spec.name);
    const double capture_seconds = seconds_since(capture_start);

    const ReplayCompareEngine engine(captured.trace, spec.cfg);
    double execute_seconds = 0.0;
    double replay_seconds = 0.0;
    std::vector<RunResult> replayed;
    for (int rep = 0; rep < reps; ++rep) {
      const auto exec_start = Clock::now();
      for (ProtocolKind kind : all_kinds) {
        MachineConfig cfg = spec.cfg;
        cfg.protocol.kind = kind;
        const RunResult r = run_experiment(cfg, spec.build, /*seed=*/1);
        (void)r;
      }
      const double exec_pass = seconds_since(exec_start);

      const auto replay_start = Clock::now();
      std::vector<RunResult> pass;
      pass.reserve(all_kinds.size());
      for (ProtocolKind kind : all_kinds) {
        pass.push_back(engine.replay(kind));
      }
      const double replay_pass = seconds_since(replay_start);

      if (rep == 0) {
        execute_seconds = exec_pass;
        replay_seconds = replay_pass;
        replayed = std::move(pass);
      } else {
        execute_seconds = std::min(execute_seconds, exec_pass);
        replay_seconds = std::min(replay_seconds, replay_pass);
      }
    }

    // Same-protocol replay must reproduce the captured run exactly.
    const auto base_it = std::find(all_kinds.begin(), all_kinds.end(),
                                   spec.cfg.protocol.kind);
    const std::size_t base_idx =
        static_cast<std::size_t>(base_it - all_kinds.begin());
    const std::vector<std::string> diffs =
        compare_replay(captured.executed, replayed[base_idx]);
    if (!diffs.empty()) {
      std::fprintf(stderr,
                   "perf_baseline: REPLAY DISAGREEMENT in %s (%s):\n",
                   spec.name, to_string(spec.cfg.protocol.kind));
      for (const std::string& diff : diffs) {
        std::fprintf(stderr, "perf_baseline:   %s\n", diff.c_str());
      }
      return 1;
    }

    // The parallel fan-out must match the serial replay cell by cell.
    const std::vector<RunResult> fanned =
        engine.replay_matrix(all_kinds, {}, jobs);
    bool fan_agrees = true;
    for (std::size_t i = 0; i < all_kinds.size(); ++i) {
      for (const std::string& diff : compare_replay(replayed[i], fanned[i])) {
        std::fprintf(stderr,
                     "perf_baseline: SERIAL/PARALLEL REPLAY MISMATCH in %s "
                     "(%s): %s\n",
                     spec.name, to_string(all_kinds[i]), diff.c_str());
        fan_agrees = false;
      }
    }
    if (!fan_agrees) {
      return 1;
    }

    Json::Object entry;
    entry.emplace_back("name", Json(std::string(spec.name)));
    entry.emplace_back("protocols", Json(all_kinds.size()));
    entry.emplace_back("reps", Json(static_cast<std::uint64_t>(reps)));
    entry.emplace_back("execute_seconds", Json(execute_seconds));
    entry.emplace_back("capture_seconds", Json(capture_seconds));
    entry.emplace_back("replay_seconds", Json(replay_seconds));
    entry.emplace_back(
        "speedup",
        Json(replay_seconds > 0 ? execute_seconds / replay_seconds : 0.0));
    entry.emplace_back(
        "speedup_with_capture",
        Json(capture_seconds + replay_seconds > 0
                 ? execute_seconds / (capture_seconds + replay_seconds)
                 : 0.0));
    entry.emplace_back("agree", Json(true));
    std::fprintf(stderr,
                 "perf_baseline: replay_compare %s: execute %.2fs, "
                 "capture %.2fs, replay %.2fs (speedup %.2fx)\n",
                 spec.name, execute_seconds, capture_seconds, replay_seconds,
                 replay_seconds > 0 ? execute_seconds / replay_seconds : 0.0);
    replay_docs.emplace_back(std::move(entry));
  }

  // Aggregate per figure, preserving suite order.
  Json::Array figures;
  std::vector<std::string> figure_order;
  for (const RunSpec& spec : suite) {
    if (figure_order.empty() || figure_order.back() != spec.figure) {
      figure_order.push_back(spec.figure);
    }
  }
  for (const std::string& name : figure_order) {
    double fig_seconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t accesses = 0;
    int runs = 0;
    Json::Array run_docs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].figure != name) continue;
      fig_seconds += serial[i].seconds;
      cycles += serial[i].result.exec_time;
      accesses += serial[i].result.accesses;
      runs += 1;
      Json::Object run_doc;
      run_doc.emplace_back("label", Json(suite[i].label));
      run_doc.emplace_back("seconds", Json(serial[i].seconds));
      run_doc.emplace_back("exec_cycles", Json(serial[i].result.exec_time));
      run_doc.emplace_back("accesses", Json(serial[i].result.accesses));
      run_docs.emplace_back(std::move(run_doc));
    }
    Json::Object fig;
    fig.emplace_back("name", Json(name));
    fig.emplace_back("runs", Json(runs));
    fig.emplace_back("serial_seconds", Json(fig_seconds));
    fig.emplace_back("sims_per_second",
                     Json(fig_seconds > 0 ? runs / fig_seconds : 0.0));
    fig.emplace_back(
        "simulated_cycles_per_second",
        Json(fig_seconds > 0 ? static_cast<double>(cycles) / fig_seconds
                             : 0.0));
    fig.emplace_back(
        "accesses_per_second",
        Json(fig_seconds > 0 ? static_cast<double>(accesses) / fig_seconds
                             : 0.0));
    fig.emplace_back("results", Json(std::move(run_docs)));
    figures.emplace_back(std::move(fig));
  }

  Json::Object doc;
  doc.emplace_back("schema_version", Json(std::uint64_t{1}));
  doc.emplace_back("generator", Json("lssim perf_baseline"));
  // Build/config provenance (pure additions; absent in older captures).
  // The suite runs the paper's machine: the directory and interconnect
  // fields record the organisation and transport every entry used.
  doc.emplace_back("git_commit", Json(git_commit()));
  {
    const MachineConfig suite_cfg = MachineConfig::scientific_default();
    doc.emplace_back("directory",
                     Json(to_string(suite_cfg.directory_scheme)));
    doc.emplace_back("interconnect",
                     Json(to_string(suite_cfg.interconnect)));
  }
  doc.emplace_back("quick", Json(quick));
  doc.emplace_back("jobs", Json(jobs));
  doc.emplace_back("host_hardware_concurrency", Json(default_jobs()));
  doc.emplace_back("total_simulations", Json(suite.size()));
  doc.emplace_back("serial_seconds", Json(serial_seconds));
  doc.emplace_back("parallel_seconds", Json(parallel_seconds));
  // With one core (or one worker) the parallel pass can only time-slice
  // the serial work, so serial/parallel measures executor overhead, not
  // parallel gain — recording it as a speedup would archive numbers like
  // 0.92x that later reads as a regression. Write null instead;
  // bench_compare.py skips speedup comparison when either side is null.
  const bool speedup_meaningful = default_jobs() > 1 && jobs > 1;
  if (!speedup_meaningful) {
    notes.emplace_back(
        "speedup is null: the parallel pass ran without real concurrency "
        "(1-core host or --jobs 1), which measures executor overhead");
  }
  doc.emplace_back(
      "speedup",
      speedup_meaningful && parallel_seconds > 0
          ? Json(serial_seconds / parallel_seconds)
          : Json(nullptr));
  doc.emplace_back(
      "sims_per_second_serial",
      Json(serial_seconds > 0 ? suite.size() / serial_seconds : 0.0));
  doc.emplace_back(
      "sims_per_second_parallel",
      Json(parallel_seconds > 0 ? suite.size() / parallel_seconds : 0.0));
  if (!notes.empty()) {
    Json::Array note_docs;
    for (std::string& note : notes) {
      note_docs.emplace_back(Json(std::move(note)));
    }
    doc.emplace_back("notes", Json(std::move(note_docs)));
  }
  doc.emplace_back("replay_compare", Json(std::move(replay_docs)));
  doc.emplace_back("figures", Json(std::move(figures)));
  const Json json{std::move(doc)};

  const bool to_stdout = out_path == "-";
  std::ofstream file;
  if (!to_stdout) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "perf_baseline: cannot open %s\n",
                   out_path.c_str());
      return 3;
    }
  }
  std::ostream& os = to_stdout ? std::cout : file;
  json.write(os, 2);
  os << "\n";
  os.flush();
  if (!os) {
    std::fprintf(stderr, "perf_baseline: failed writing %s\n",
                 out_path.c_str());
    return 3;
  }

  char speedup_text[32] = "n/a";
  if (speedup_meaningful && parallel_seconds > 0) {
    std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx",
                  serial_seconds / parallel_seconds);
  }
  std::fprintf(stderr,
               "perf_baseline: serial %.2fs, parallel %.2fs at --jobs %d "
               "(speedup %s) -> %s\n",
               serial_seconds, parallel_seconds, jobs, speedup_text,
               to_stdout ? "stdout" : out_path.c_str());
  return 0;
}

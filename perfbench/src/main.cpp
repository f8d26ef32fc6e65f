// lssim_perfbench — the benchmark binary perfbench/run.py builds and runs.
//
//   lssim_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--digests FILE] [--commit SHA]
//   lssim_perfbench --selftest
//   lssim_perfbench --record-digests W FIRST_SEED LAST_SEED
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit codes: 0 all results correct, 1 a wrong result, 2 usage,
// 3 refused (an assert-enabled or unoptimised build).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

int exit_code(const Checker& checker) { return checker.failed() == 0 ? 0 : 1; }

/// Why this build must not be measured; empty when it may be.
std::string build_refusal() {
  std::string why;
#ifndef NDEBUG
  why += "compiled without NDEBUG (asserts enabled); ";
#endif
#ifndef __OPTIMIZE__
  why += "compiled without optimisation; ";
#endif
  const std::string flags = LSSIM_BENCH_CXX_FLAGS;
  if (flags.find("-DNDEBUG") == std::string::npos) {
    why += "library flags lack -DNDEBUG; ";
  }
  if (flags.find("-O") == std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    why += "library flags lack an optimisation level; ";
  }
  return why;
}

void print_provenance(const std::string& commit) {
  std::printf("perfbench: provenance commit=%s nproc=%u compiler=\"%s\" "
              "build_type=%s flags=\"%s\"\n",
              commit.c_str(), std::thread::hardware_concurrency(),
              LSSIM_BENCH_COMPILER, LSSIM_BENCH_BUILD_TYPE,
              LSSIM_BENCH_CXX_FLAGS);
}

void print_result(const Checker& checker, const MetricList& metrics) {
  std::printf("perfbench: %llu of %llu simulations wrong (error_rate %.6g); "
              "%llu of %llu agreement checks failed\n",
              static_cast<unsigned long long>(checker.wrong()),
              static_cast<unsigned long long>(checker.attempted()),
              checker.error_rate(),
              static_cast<unsigned long long>(checker.failed_checks()),
              static_cast<unsigned long long>(checker.checks()));
  for (const Metric& m : metrics.items()) {
    std::printf("perfbench:   %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  const char* sep = "";
  for (const Metric& m : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("selftest: %s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  const auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
    return v;
  };

  // Tail rule: highest whole percentile with >= 10 samples beyond it.
  const Tail t40 = tail_of(ramp(40));
  expect(t40.percentile == 75 && t40.value == 30 && t40.beyond == 10 &&
             t40.samples == 40,
         "tail of 40 samples is p75 with 10 beyond");
  const Tail t100 = tail_of(ramp(100));
  expect(t100.percentile == 90 && t100.value == 90 && t100.beyond == 10,
         "tail of 100 samples is p90");
  const Tail t11 = tail_of(ramp(11));
  expect(t11.percentile == 9 && t11.value == 1 && t11.beyond == 10,
         "tail of 11 samples is p9");
  const Tail t10 = tail_of(ramp(10));
  expect(t10.percentile == 100 && t10.value == 10 && t10.beyond == 0,
         "10 samples have no tail: maximum, flagged p100");
  expect(tail_of({}).samples == 0, "no samples, no tail");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");

  // Metric-name charset.
  expect(valid_metric_name("core.access_ns.l1_hit") &&
             valid_metric_name("setup_s") && valid_metric_name("9-a.b_c"),
         "metric names of [A-Za-z0-9_.-] are accepted");
  expect(!valid_metric_name("") && !valid_metric_name("_lead") &&
             !valid_metric_name(".lead") && !valid_metric_name("a b") &&
             !valid_metric_name("a/b") && !valid_metric_name("a{b}") &&
             !valid_metric_name("caf\xc3\xa9") &&
             !valid_metric_name(std::string(65, 'a')) &&
             valid_metric_name(std::string(64, 'a')),
         "metric names outside the charset or over 64 long are rejected");
  bool threw = false;
  try {
    MetricList m;
    m.add("bad name", 1, "s");
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "MetricList refuses a bad name");

  // The correctness gate: a clean run passes, an injected stat mismatch
  // raises error_rate and the exit code.
  Checker clean;
  (void)run_untraced("oltp4", 1, 0.0, clean);
  expect(clean.attempted() > 0 && clean.failed() == 0 &&
             clean.error_rate() == 0 && exit_code(clean) == 0,
         "an unperturbed run has error_rate 0 and exits 0");
  Checker injected;
  injected.inject_mismatch();
  (void)run_untraced("oltp4", 1, 0.0, injected);
  expect(injected.wrong() > 0 && injected.error_rate() > 0 &&
             injected.failed() == injected.wrong() &&
             exit_code(injected) != 0,
         "an injected stat mismatch raises error_rate and the exit code");
  Checker checks;
  (void)checks.expect("a disagreeing check", {"differs"});
  expect(checks.attempted() == 0 && checks.error_rate() == 0 &&
             checks.failed() == 1 && exit_code(checks) != 0,
         "a failed agreement check fails the run but is not a simulation");

  std::printf("selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: lssim_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--digests FILE] [--commit SHA]\n"
               "       lssim_perfbench --selftest\n"
               "       lssim_perfbench --record-digests W FIRST LAST\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (text[0] == '-' || text[0] == '\0') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

bool known_workload(const std::string& name) {
  for (const std::string& w : workload_names()) {
    if (w == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fix glibc's mmap threshold at 1 MiB. Left dynamic, it rises after the
  // first large free, later multi-MiB trace buffers land in the heap, and
  // peak_rss_mib follows the heap's fragmentation history (44 to 54 MiB
  // on replay_oltp across seeds) instead of live memory. Below 1 MiB the
  // heap still serves the simulator's per-node arrays, so set-up does not
  // pay fresh page faults for them (at 128 KiB, stencil128's setup_s grew
  // fourfold).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  std::string workload;
  std::string digests;
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;

  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return selftest();
  }
  if (argc == 5 && std::strcmp(argv[1], "--record-digests") == 0) {
    std::uint64_t first = 0, last = 0;
    if (!known_workload(argv[2]) || !parse_u64(argv[3], &first) ||
        !parse_u64(argv[4], &last)) {
      return usage();
    }
    record_digests(argv[2], first, last);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      have_seed = parse_u64(argv[++i], &seed);
    } else if (arg == "--seconds") {
      have_seconds = parse_u64(argv[++i], &seconds);
    } else if (arg == "--trace") {
      have_trace = parse_u64(argv[++i], &trace) && trace <= 1;
    } else if (arg == "--digests") {
      digests = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (!known_workload(workload) || !have_seed || !have_seconds ||
      !have_trace || seconds == 0 || seconds > 120) {
    return usage();
  }

  print_provenance(commit);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                 refusal.c_str());
    return 3;
  }

  Checker checker;
  if (!digests.empty() && !checker.load_digests(digests)) {
    std::fprintf(stderr, "perfbench: cannot read digests from %s\n",
                 digests.c_str());
    return 2;
  }
  std::printf("perfbench: %zu recorded digests loaded\n", checker.recorded());
  try {
    const double s = static_cast<double>(seconds);
    const MetricList metrics = trace == 1
                                   ? run_traced(workload, seed, s, checker)
                                   : run_untraced(workload, seed, s, checker);
    print_result(checker, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return exit_code(checker);
}

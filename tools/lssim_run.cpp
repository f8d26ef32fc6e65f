// lssim_run — command-line driver for single simulations and protocol
// comparisons. See --help (driver_usage in src/driver/options.hpp).
//
// Exit codes: 0 success, 1 runtime error (unknown workload parameters,
// invalid machine config), 2 usage error — including a malformed or
// out-of-range --set value and a --replay-from trace whose
// machine-config hash does not match the simulated machine,
// 3 output I/O failure (results or a --*-out artifact could not be
// fully written), 4 coherence invariant violation (--check-invariants;
// details on stderr), 5 replay cross-check divergence
// (--replay-crosscheck; field-by-field diff on stderr).
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>

#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "exec/heartbeat.hpp"
#include "trace/replay_compare.hpp"

int main(int argc, char** argv) {
  using namespace lssim;

  DriverOptions options;
  std::string error;
  if (!parse_driver_args(argc, argv, &options, &error)) {
    std::fprintf(stderr, "lssim_run: %s\n\n%s", error.c_str(),
                 driver_usage().c_str());
    return 2;
  }
  if (options.show_help) {
    std::fputs(driver_usage().c_str(), stdout);
    return 0;
  }
  if (options.list_mode()) {
    // Discovery flags: canonical registry names, one per line, so shell
    // scripts can build sweep matrices without hardcoding the family.
    const auto list = [](const auto& table) {
      for (const auto& row : table.rows) std::printf("%s\n", row.name);
    };
    if (options.list_protocols) list(kProtocolNames);
    if (options.list_directories) list(kDirectoryNames);
    if (options.list_interconnects) list(kInterconnectNames);
    return 0;
  }
  if (!driver_knows_workload(options.workload)) {
    std::fprintf(stderr, "lssim_run: unknown workload '%s'\n\n%s",
                 options.workload.c_str(), driver_usage().c_str());
    return 2;
  }

  if (options.replay_mode()) {
    // Capture-once / replay-many path (docs/PERFORMANCE.md). Telemetry
    // artifacts (--metrics-out etc.) need live Systems and are not
    // produced here; the execution-driven path stays the default and the
    // ground truth for every figure.
    try {
      const ReplayDriverOutcome outcome = run_driver_replay(options);
      print_driver_results(std::cout, options, outcome.results);
      std::cout.flush();
      if (!std::cout) {
        std::fprintf(stderr,
                     "lssim_run: failed writing results to stdout\n");
        return 3;
      }
      if (!outcome.divergences.empty()) {
        std::fprintf(stderr,
                     "lssim_run: replay cross-check diverged from live "
                     "execution (%zu stat(s)):\n",
                     outcome.divergences.size());
        for (const std::string& diff : outcome.divergences) {
          std::fprintf(stderr, "lssim_run:   %s\n", diff.c_str());
        }
        return 5;
      }
    } catch (const TraceConfigMismatch& ex) {
      std::fprintf(stderr, "lssim_run: %s\n", ex.what());
      return 2;
    } catch (const WorkloadParamError& ex) {
      std::fprintf(stderr, "lssim_run: %s\n", ex.what());
      return 2;
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "lssim_run: %s\n", ex.what());
      return 1;
    }
    return 0;
  }

  try {
    // --heartbeat-out: periodic progress JSONL ("-" = stderr so stdout
    // stays machine-parseable results).
    std::ofstream heartbeat_file;
    std::unique_ptr<HeartbeatEmitter> heartbeat;
    if (!options.heartbeat_out.empty()) {
      std::ostream* hb_os = &std::cerr;
      if (options.heartbeat_out != "-") {
        heartbeat_file.open(options.heartbeat_out);
        if (!heartbeat_file) {
          std::fprintf(stderr, "lssim_run: cannot open %s for heartbeat\n",
                       options.heartbeat_out.c_str());
          return 3;
        }
        hb_os = &heartbeat_file;
      }
      const std::size_t total_runs =
          options.protocols.size() *
          (options.directories.empty() ? 1 : options.directories.size()) *
          (options.interconnects.empty() ? 1
                                         : options.interconnects.size());
      heartbeat = std::make_unique<HeartbeatEmitter>(
          hb_os, options.heartbeat_interval,
          static_cast<std::uint64_t>(total_runs), "run");
    }

    const auto start = std::chrono::steady_clock::now();
    // Fans the per-protocol simulations out across --jobs host threads;
    // result order (and so every artifact byte) matches a serial sweep.
    std::vector<DriverRun> runs =
        run_driver_workloads_captured(options, heartbeat.get());
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::vector<RunResult> results;
    results.reserve(runs.size());
    for (const DriverRun& run : runs) {
      results.push_back(run.result);
    }
    print_driver_results(std::cout, options, results);
    // Flush and verify: JSON/CSV output often feeds a pipeline, and a
    // half-written document must not exit 0.
    std::cout.flush();
    if (!std::cout) {
      std::fprintf(stderr, "lssim_run: failed writing results to stdout\n");
      return 3;
    }
    {
      const PhaseTimer timer(heartbeat.get(), "artifacts");
      if (!write_driver_artifacts(options, runs, wall_seconds, &error)) {
        std::fprintf(stderr, "lssim_run: %s\n", error.c_str());
        return 3;
      }
    }
    if (heartbeat != nullptr) {
      heartbeat->finish();
      if (heartbeat_file.is_open()) {
        heartbeat_file.flush();
        if (!heartbeat_file) {
          std::fprintf(stderr, "lssim_run: failed writing heartbeat to %s\n",
                       options.heartbeat_out.c_str());
          return 3;
        }
      }
    }
    // --check-invariants: artifacts above are still written (they help
    // debug the violation), but the run must not exit 0.
    std::uint64_t violations = 0;
    for (const DriverRun& run : runs) {
      violations += run.invariant_violations;
      for (const std::string& message : run.invariant_messages) {
        if (options.directories.size() > 1) {
          std::fprintf(stderr, "lssim_run: [%s@%s] %s\n",
                       to_string(run.result.protocol),
                       to_string(run.result.directory),
                       message.c_str());
        } else {
          std::fprintf(stderr, "lssim_run: [%s] %s\n",
                       to_string(run.result.protocol), message.c_str());
        }
      }
    }
    if (violations > 0) {
      std::fprintf(stderr,
                   "lssim_run: %llu coherence invariant violation(s)\n",
                   static_cast<unsigned long long>(violations));
      return 4;
    }
  } catch (const WorkloadParamError& ex) {
    std::fprintf(stderr, "lssim_run: %s\n", ex.what());
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "lssim_run: %s\n", ex.what());
    return 1;
  }
  return 0;
}

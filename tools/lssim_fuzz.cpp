// lssim_fuzz — coherence verification CLI over src/check/: random trace
// fuzzing with ddmin shrinking, exhaustive small-config exploration,
// repro replay and a fault-injection selftest. docs/VERIFICATION.md has
// the full workflow.
//
//   lssim_fuzz fuzz [--seed N] [--iterations N] [--length N]
//                   [--protocol NAME] [--no-knobs] [--out DIR]
//                   [--heartbeat-out F] [--heartbeat-interval S]
//   lssim_fuzz explore [--nodes N] [--blocks N] [--depth N]
//                      [--protocol NAME] [--out DIR]
//   lssim_fuzz replay FILE...
//   lssim_fuzz selftest [--out DIR]
//
// Exit codes: 0 no violations (selftest: bug caught), 1 violations found
// (selftest: bug missed), 2 usage error, 3 output I/O failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/fuzzer.hpp"
#include "driver/options.hpp"
#include "exec/heartbeat.hpp"

namespace {

using namespace lssim;
using namespace lssim::check;

constexpr const char* kUsage =
    "usage: lssim_fuzz <mode> [options]\n"
    "\n"
    "modes:\n"
    "  fuzz      random traces, invariant-checked, failures ddmin-shrunk\n"
    "            --seed N (default 1)       base RNG seed\n"
    "            --iterations N (default 200)\n"
    "            --length N (default 48)    accesses per trace\n"
    "            --protocol NAME            restrict to one protocol\n"
    "            --compare                  replay every generated trace\n"
    "                                       under every protocol (capture\n"
    "                                       once, replay many)\n"
    "            --no-knobs                 paper-default knobs only\n"
    "            --out DIR                  write shrunk repros there\n"
    "            --heartbeat-out F          progress JSONL (\"-\" = stderr)\n"
    "            --heartbeat-interval S     seconds between lines\n"
    "                                       (default 10; 0 = every trace)\n"
    "  explore   exhaustive interleavings on a tiny config\n"
    "            --nodes N (default 2)      2..4\n"
    "            --blocks N (default 2)     1..2\n"
    "            --depth N (default 4)      accesses per sequence\n"
    "            --protocol NAME / --out DIR as above\n"
    "  replay    re-run repro files, print violations\n"
    "  selftest  inject a broken LS policy (skipped de-tag rule); the\n"
    "            checker must catch it with a shrunk repro\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "lssim_fuzz: %s\n\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// `text` as a whole number in [lo, hi] (no sign on unsigned flags, no
/// junk, no wrap or narrowing), else a usage error naming `flag`.
template <typename T>
T parse_flag(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  if (!parse_whole(text, &value) || value < lo || value > hi) {
    usage_error("bad " + flag + " (expected " + std::to_string(lo) + ".." +
                std::to_string(hi) + "): '" + text + "'");
  }
  return value;
}

constexpr int kIntMax = std::numeric_limits<int>::max();
/// Each trace is held in memory: a million accesses is tens of MiB.
constexpr int kMaxTraceLength = 1'000'000;

/// Pulls the value of `flag` out of argv-style `args` when present.
bool take_value(std::vector<std::string>& args, const std::string& flag,
                std::string* out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) usage_error(flag + " needs a value");
    *out = args[i + 1];
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return true;
  }
  return false;
}

bool take_switch(std::vector<std::string>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

std::vector<ProtocolKind> parse_protocols(std::vector<std::string>& args) {
  std::string name;
  if (!take_value(args, "--protocol", &name)) {
    return {};  // All registered.
  }
  ProtocolKind kind;
  if (!kProtocolNames.parse(name, &kind)) {
    usage_error("unknown protocol '" + name +
                "' (known: " + kProtocolNames.joined() + ")");
  }
  return {kind};
}

/// Writes retained repros as out_dir/<stem>-<index>.repro; returns false
/// on I/O failure.
bool write_repros(const std::string& out_dir, const std::string& stem,
                  const std::vector<ReproTrace>& failures) {
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const std::string path =
        out_dir + "/" + stem + "-" + std::to_string(i) + ".repro";
    try {
      save_repro_file(path, failures[i]);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "lssim_fuzz: %s\n", ex.what());
      return false;
    }
    std::printf("repro written: %s (%zu accesses)\n", path.c_str(),
                failures[i].accesses.size());
  }
  return true;
}

int report(const std::string& mode, std::uint64_t units,
           const char* unit_name, std::uint64_t accesses,
           std::uint64_t failing, const std::vector<std::string>& messages,
           const std::vector<ReproTrace>& failures,
           const std::string& out_dir) {
  std::printf("%s: %llu %s, %llu accesses, %llu failing\n", mode.c_str(),
              static_cast<unsigned long long>(units), unit_name,
              static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(failing));
  for (const std::string& message : messages) {
    std::printf("  %s\n", message.c_str());
  }
  if (!out_dir.empty() && !write_repros(out_dir, mode, failures)) {
    return 3;
  }
  return failing == 0 ? 0 : 1;
}

int run_fuzz_mode(std::vector<std::string> args) {
  FuzzOptions options;
  options.iterations = 200;
  std::string value;
  if (take_value(args, "--seed", &value)) {
    options.seed = parse_flag<std::uint64_t>(
        "--seed", value, 0, std::numeric_limits<std::uint64_t>::max());
  }
  if (take_value(args, "--iterations", &value)) {
    options.iterations = parse_flag("--iterations", value, 1, kIntMax);
  }
  if (take_value(args, "--length", &value)) {
    options.trace_length = parse_flag("--length", value, 1, kMaxTraceLength);
  }
  options.protocols = parse_protocols(args);
  options.compare_protocols = take_switch(args, "--compare");
  options.randomize_knobs = !take_switch(args, "--no-knobs");
  std::string out_dir;
  take_value(args, "--out", &out_dir);
  std::string heartbeat_out;
  take_value(args, "--heartbeat-out", &heartbeat_out);
  double heartbeat_interval = 10.0;
  if (take_value(args, "--heartbeat-interval", &value)) {
    if (!parse_whole(value, &heartbeat_interval) ||
        !std::isfinite(heartbeat_interval) || heartbeat_interval < 0.0) {
      usage_error("bad --heartbeat-interval (expected seconds >= 0): '" +
                  value + "'");
    }
  }
  if (!args.empty()) usage_error("unknown argument '" + args[0] + "'");

  std::ofstream heartbeat_file;
  std::unique_ptr<HeartbeatEmitter> heartbeat;
  if (!heartbeat_out.empty()) {
    std::ostream* hb_os = &std::cerr;
    if (heartbeat_out != "-") {
      heartbeat_file.open(heartbeat_out);
      if (!heartbeat_file) {
        std::fprintf(stderr, "lssim_fuzz: cannot open %s for heartbeat\n",
                     heartbeat_out.c_str());
        return 3;
      }
      hb_os = &heartbeat_file;
    }
    heartbeat = std::make_unique<HeartbeatEmitter>(
        hb_os, heartbeat_interval,
        static_cast<std::uint64_t>(options.iterations), "trace");
    options.heartbeat = heartbeat.get();
  }

  const FuzzResult result = run_fuzzer(options);
  if (heartbeat != nullptr) {
    heartbeat->finish();
  }
  return report("fuzz", result.traces, "traces", result.accesses,
                result.failing_traces, result.messages, result.failures,
                out_dir);
}

int run_explore_mode(std::vector<std::string> args) {
  ExplorerOptions options;
  std::string value;
  int nodes = 2;
  if (take_value(args, "--nodes", &value)) {
    nodes = parse_flag("--nodes", value, 2, 4);
  }
  options.machine = tiny_machine(nodes);
  if (take_value(args, "--blocks", &value)) {
    options.num_blocks = parse_flag("--blocks", value, 1, 2);
  }
  if (take_value(args, "--depth", &value)) {
    options.depth = parse_flag("--depth", value, 1, 8);
  }
  options.protocols = parse_protocols(args);
  std::string out_dir;
  take_value(args, "--out", &out_dir);
  if (!args.empty()) usage_error("unknown argument '" + args[0] + "'");

  const ExplorerResult result = run_explorer(options);
  return report("explore", result.sequences, "sequences", result.accesses,
                result.failing_sequences, result.messages, result.failures,
                out_dir);
}

int run_replay_mode(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("replay needs at least one repro file");
  std::uint64_t failing = 0;
  for (const std::string& path : args) {
    ReproTrace trace;
    try {
      trace = load_repro_file(path);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "lssim_fuzz: %s\n", ex.what());
      return 2;
    }
    const TraceRunResult run = run_trace(trace);
    std::printf("%s: %zu accesses, %llu violations\n", path.c_str(),
                trace.accesses.size(),
                static_cast<unsigned long long>(run.total_violations));
    for (const Violation& violation : run.violations) {
      std::printf("  %s\n", violation.message().c_str());
    }
    failing += run.total_violations;
  }
  return failing == 0 ? 0 : 1;
}

int run_selftest_mode(std::vector<std::string> args) {
  std::string out_dir;
  take_value(args, "--out", &out_dir);
  if (!args.empty()) usage_error("unknown argument '" + args[0] + "'");

  // Paper-default knobs so the LS tag model is armed; the injected bug
  // (skipped §3.1 foreign-access de-tag) must surface within a modest
  // fixed budget and shrink to a handful of accesses.
  FuzzOptions options;
  options.seed = 7;
  options.iterations = 50;
  options.trace_length = 32;
  options.protocols = {ProtocolKind::kLs};
  options.randomize_knobs = false;
  options.max_failures = 1;
  const FuzzResult result = run_fuzzer(options, skip_detag_policy_factory());

  if (result.ok() || result.failures.empty()) {
    std::printf(
        "selftest: FAILED — injected skip-de-tag bug was not detected\n");
    return 1;
  }
  const ReproTrace& repro = result.failures.front();
  std::printf("selftest: injected bug caught; shrunk repro has %zu "
              "accesses\n  %s\n",
              repro.accesses.size(), result.messages.front().c_str());
  for (const ReproAccess& access : repro.accesses) {
    std::printf("  %s\n", check::to_string(access).c_str());
  }
  if (repro.accesses.size() > 12) {
    std::printf("selftest: FAILED — shrunk repro exceeds 12 accesses\n");
    return 1;
  }
  if (!out_dir.empty() && !write_repros(out_dir, "selftest", {repro})) {
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_error("missing mode");
  const std::string mode = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (mode == "--help" || mode == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    if (mode == "fuzz") return run_fuzz_mode(std::move(args));
    if (mode == "explore") return run_explore_mode(std::move(args));
    if (mode == "replay") return run_replay_mode(args);
    if (mode == "selftest") return run_selftest_mode(std::move(args));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "lssim_fuzz: %s\n", ex.what());
    return 1;
  }
  usage_error("unknown mode '" + mode + "'");
}

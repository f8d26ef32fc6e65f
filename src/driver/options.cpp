#include "driver/options.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "core/protocol_registry.hpp"

namespace lssim {
namespace {

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

bool parse_size(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::string digits = text;
  std::uint64_t scale = 1;
  const char suffix = static_cast<char>(std::tolower(
      static_cast<unsigned char>(digits.back())));
  if (suffix == 'k' || suffix == 'm' || suffix == 'g') {
    scale = suffix == 'k' ? 1024ull
                          : (suffix == 'm' ? 1024ull * 1024
                                           : 1024ull * 1024 * 1024);
    digits.pop_back();
  }
  std::uint64_t value = 0;
  if (!parse_u64(digits, &value)) return false;
  *out = value * scale;
  return true;
}

std::string driver_usage() {
  return "lssim_run — run one workload on the simulated CC-NUMA machine\n"
         "\n"
         "  --workload W       mp3d | cholesky | lu | oltp | radix | "
         "stencil |\n"
         "                     pingpong | private | readmostly  "
         "(default pingpong)\n"
         "  --protocol P       " +
         kProtocolNames.joined(" | ") +
         "\n"
         "                     (default Baseline, case-insensitive)\n"
         "  --compare          run every registered protocol, normalized "
         "to Baseline" +
         R"(
  --procs N          processors (1..256, default 4; full-map needs <= 64)
  --l1 SIZE          L1 capacity, e.g. 4k             (default per paper)
  --l2 SIZE          L2 capacity, e.g. 64k
  --assoc N          L1 associativity
  --block BYTES      cache block size (both levels)
  --topology T       crossbar | ring | mesh           (default crossbar)
  --consistency C    sc | pc                          (default sc)
  --false-sharing    enable the Dubois classifier
  --seed N           deterministic seed               (default 1)
  --set KEY=VALUE    workload parameter (repeatable), e.g.
                     --set particles=4000 --set txns_per_proc=500;
                     a malformed or out-of-range VALUE exits 2
  --format F         text | csv | json                (default text)

  --protocols A,B    run several protocols (e.g. baseline,ls)
  --directory D      directory organisation: )" +
         kDirectoryNames.joined(" | ") + R"(
                     (default full-map, case-insensitive)
  --directories A,B  sweep several organisations; the driver runs the
                     full protocols x directories matrix
  --interconnect I   coherence transport: )" +
         kInterconnectNames.joined(" | ") + R"(
                     (default network, case-insensitive)
  --interconnects A,B
                     sweep several transports; third matrix axis
                     (protocols x directories x interconnects)
  --bus-arb A        bus arbitration: fcfs | round-robin (default fcfs;
                     only applies under --interconnect bus)
  --list-protocols   print registered protocol names, one per line
  --list-directories print registered directory organisations
  --list-interconnects
                     print registered coherence transports
  --dir-pointers N   limited-ptr: pointers per entry (1..7, default 4)
  --dir-region N     coarse: nodes per presence bit (0 = auto)
  --dir-entries N    sparse: directory-cache capacity (0 = auto 1024)
  --jobs N           host threads for multi-protocol sweeps
                     (default: all cores; results identical for any N)
  --metrics-out F    write metrics snapshots as JSON ("-" = stdout)
  --perfetto-out F   write a Chrome trace-event JSON timeline
                     (open in ui.perfetto.dev or chrome://tracing)
  --manifest-out F   write the versioned run manifest (JSON)
  --trace-capacity N max trace events kept per run
                     (default 1048576 when --perfetto-out is set)
  --latency-out F    write the ownership-latency report (JSON, "-" =
                     stdout): per-protocol p50/p95/p99 of read-miss /
                     write-miss / upgrade transaction latencies
  --audit-out F      write the tag-decision audit trail (JSONL, "-" =
                     stdout): every tag/de-tag/hysteresis transition
                     with its reason code (docs/OBSERVABILITY.md)
  --audit-capacity N audit records kept per run (last-N ring;
                     default 1048576 when --audit-out is set)
  --heartbeat-out F  write progress heartbeats (JSONL, "-" = stderr):
                     runs completed, accesses/sec, per-phase wall time
  --heartbeat-interval S
                     seconds between heartbeats (default 10;
                     0 = one line per completed run)
  --check-invariants verify coherence invariants after every access
                     (docs/VERIFICATION.md; slow — exit 4 on violation)

  Capture-once / replay-many (docs/PERFORMANCE.md):
  --replay-compare   execute the workload once, then drive the whole
                     protocols x directories matrix by replaying the
                     captured access stream (exact for runs whose access
                     stream is timing-independent; figures stay
                     execution-driven)
  --capture-trace F  save the captured trace (versioned format with a
                     machine-config hash) for later --replay-from
  --replay-from F    replay a saved trace instead of capturing; exits 2
                     when the trace's config hash does not match the
                     machine being simulated
  --replay-crosscheck
                     also execute every matrix cell live and verify the
                     replayed stats match bit-for-bit (exit 5 and a
                     field-by-field diff on divergence)
  --help             this text
)";
}

bool parse_driver_args(int argc, const char* const* argv,
                       DriverOptions* options, std::string* error) {
  auto need_value = [&](int& i, std::string* value) {
    if (i + 1 >= argc) {
      *error = std::string("missing value after ") + argv[i];
      return false;
    }
    *value = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options->show_help = true;
    } else if (arg == "--workload") {
      if (!need_value(i, &value)) return false;
      options->workload = lower(value);
    } else if (arg == "--protocol") {
      if (!need_value(i, &value)) return false;
      ProtocolKind kind;
      if (!kProtocolNames.parse(value, &kind)) {
        *error = "unknown protocol: " + value +
                 " (registered: " + kProtocolNames.joined() + ")";
        return false;
      }
      options->protocols = {kind};
    } else if (arg == "--protocols") {
      if (!need_value(i, &value)) return false;
      if (!kProtocolNames.parse_list(value, "--protocols",
                                     &options->protocols, error)) {
        return false;
      }
    } else if (arg == "--directory") {
      if (!need_value(i, &value)) return false;
      DirectoryKind kind;
      if (!kDirectoryNames.parse(value, &kind)) {
        *error = "unknown directory organisation: " + value +
                 " (registered: " + kDirectoryNames.joined() + ")";
        return false;
      }
      options->directories = {kind};
      options->machine.directory_scheme = kind;
    } else if (arg == "--directories") {
      if (!need_value(i, &value)) return false;
      if (!kDirectoryNames.parse_list(value, "--directories",
                                      &options->directories, error)) {
        return false;
      }
      options->machine.directory_scheme = options->directories.front();
    } else if (arg == "--interconnect") {
      if (!need_value(i, &value)) return false;
      InterconnectKind kind;
      if (!kInterconnectNames.parse(value, &kind)) {
        *error = "unknown interconnect: " + value +
                 " (registered: " + kInterconnectNames.joined() + ")";
        return false;
      }
      options->interconnects = {kind};
      options->machine.interconnect = kind;
    } else if (arg == "--interconnects") {
      if (!need_value(i, &value)) return false;
      if (!kInterconnectNames.parse_list(value, "--interconnects",
                                         &options->interconnects, error)) {
        return false;
      }
      options->machine.interconnect = options->interconnects.front();
    } else if (arg == "--bus-arb") {
      if (!need_value(i, &value)) return false;
      if (!kBusArbitrationNames.parse(value,
                                      &options->machine.bus_arbitration)) {
        *error = "unknown bus arbitration (fcfs | round-robin): " + value;
        return false;
      }
    } else if (arg == "--list-protocols") {
      options->list_protocols = true;
    } else if (arg == "--list-directories") {
      options->list_directories = true;
    } else if (arg == "--list-interconnects") {
      options->list_interconnects = true;
    } else if (arg == "--dir-pointers") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n < 1 || n > 7) {
        *error = "bad --dir-pointers (expected 1..7): " + value;
        return false;
      }
      options->machine.directory_pointers = static_cast<std::uint8_t>(n);
    } else if (arg == "--dir-region") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 256) {
        *error = "bad --dir-region (expected 0..256, 0 = auto): " + value;
        return false;
      }
      options->machine.directory_region = static_cast<std::uint16_t>(n);
    } else if (arg == "--dir-entries") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n)) {
        *error = "bad --dir-entries: " + value;
        return false;
      }
      options->machine.directory_entries = static_cast<std::uint32_t>(n);
    } else if (arg == "--metrics-out") {
      if (!need_value(i, &value)) return false;
      options->metrics_out = value;
    } else if (arg == "--perfetto-out") {
      if (!need_value(i, &value)) return false;
      options->perfetto_out = value;
    } else if (arg == "--manifest-out") {
      if (!need_value(i, &value)) return false;
      options->manifest_out = value;
    } else if (arg == "--latency-out") {
      if (!need_value(i, &value)) return false;
      options->latency_out = value;
    } else if (arg == "--audit-out") {
      if (!need_value(i, &value)) return false;
      options->audit_out = value;
    } else if (arg == "--audit-capacity") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n)) {
        *error = "bad --audit-capacity: " + value;
        return false;
      }
      options->audit_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--heartbeat-out") {
      if (!need_value(i, &value)) return false;
      options->heartbeat_out = value;
    } else if (arg == "--heartbeat-interval") {
      if (!need_value(i, &value)) return false;
      char* end = nullptr;
      const double secs = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || secs < 0.0) {
        *error = "bad --heartbeat-interval (seconds >= 0): " + value;
        return false;
      }
      options->heartbeat_interval = secs;
    } else if (arg == "--jobs") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n > 1024) {
        *error = "bad --jobs (expected 0..1024, 0 = all cores): " + value;
        return false;
      }
      options->jobs = static_cast<int>(n);
    } else if (arg == "--trace-capacity") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n)) {
        *error = "bad --trace-capacity: " + value;
        return false;
      }
      options->trace_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--check-invariants") {
      options->machine.check_invariants = true;
    } else if (arg == "--compare") {
      options->compare = true;
      options->protocols = all_protocol_kinds();
    } else if (arg == "--capture-trace") {
      if (!need_value(i, &value)) return false;
      options->capture_trace_out = value;
    } else if (arg == "--replay-from") {
      if (!need_value(i, &value)) return false;
      options->replay_from = value;
    } else if (arg == "--replay-compare") {
      options->replay_compare = true;
    } else if (arg == "--replay-crosscheck") {
      options->replay_crosscheck = true;
    } else if (arg == "--procs") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n < 1 || n > kMaxNodes) {
        *error = "bad --procs: " + value;
        return false;
      }
      options->machine.num_nodes = static_cast<int>(n);
    } else if (arg == "--l1" || arg == "--l2") {
      if (!need_value(i, &value)) return false;
      std::uint64_t bytes = 0;
      if (!parse_size(value, &bytes) || bytes == 0) {
        *error = "bad size: " + value;
        return false;
      }
      (arg == "--l1" ? options->machine.l1 : options->machine.l2)
          .size_bytes = static_cast<std::uint32_t>(bytes);
    } else if (arg == "--assoc") {
      if (!need_value(i, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n == 0) {
        *error = "bad --assoc: " + value;
        return false;
      }
      options->machine.l1.assoc = static_cast<std::uint32_t>(n);
    } else if (arg == "--block") {
      if (!need_value(i, &value)) return false;
      std::uint64_t bytes = 0;
      if (!parse_size(value, &bytes) || bytes == 0) {
        *error = "bad --block: " + value;
        return false;
      }
      options->machine.l1.block_bytes = static_cast<std::uint32_t>(bytes);
      options->machine.l2.block_bytes = static_cast<std::uint32_t>(bytes);
    } else if (arg == "--topology") {
      if (!need_value(i, &value)) return false;
      if (!kTopologyNames.parse(value, &options->machine.topology)) {
        *error = "unknown topology: " + value;
        return false;
      }
    } else if (arg == "--consistency") {
      if (!need_value(i, &value)) return false;
      if (!kConsistencyNames.parse(value, &options->machine.consistency)) {
        *error = "unknown consistency model: " + value;
        return false;
      }
    } else if (arg == "--false-sharing") {
      options->machine.classify_false_sharing = true;
    } else if (arg == "--seed") {
      if (!need_value(i, &value)) return false;
      if (!parse_u64(value, &options->seed)) {
        *error = "bad --seed: " + value;
        return false;
      }
    } else if (arg == "--set") {
      if (!need_value(i, &value)) return false;
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        *error = "--set expects KEY=VALUE, got: " + value;
        return false;
      }
      options->params[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (arg == "--format") {
      if (!need_value(i, &value)) return false;
      if (!kOutputFormatNames.parse(value, &options->format)) {
        *error = "unknown format: " + value;
        return false;
      }
    } else {
      *error = "unknown argument: " + arg;
      return false;
    }
  }
  return true;
}

}  // namespace lssim

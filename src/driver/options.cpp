#include "driver/options.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <iterator>

#include "core/protocol_registry.hpp"
#include "sim/machine_fields.hpp"

namespace lssim {
namespace {

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

/// Flags that set machine fields (--block sets both block sizes). Sizes
/// take a k/m/g suffix; named fields take a name or alias.
struct MachineFlag {
  const char* flag;
  std::array<const char*, 2> keys;
  bool size;
};

constexpr MachineFlag kMachineFlags[] = {
    {"--procs", {"num_nodes"}, false},
    {"--l1", {"l1.size_bytes"}, true},
    {"--l2", {"l2.size_bytes"}, true},
    {"--assoc", {"l1.assoc"}, false},
    {"--block", {"l1.block_bytes", "l2.block_bytes"}, true},
    {"--topology", {"topology"}, false},
    {"--consistency", {"consistency"}, false},
    {"--bus-arb", {"bus_arbitration"}, false},
    {"--dir-pointers", {"directory_pointers"}, false},
    {"--dir-region", {"directory_region"}, false},
    {"--dir-entries", {"directory_entries"}, false},
};

/// Sets `flag`'s fields from its argument `text`, checked against each
/// field's range (kMachineFields) before it narrows; otherwise sets
/// `*error` naming the flag.
bool set_machine_flag(const MachineFlag& flag, const std::string& text,
                      MachineConfig* machine, std::string* error) {
  for (const char* key : flag.keys) {
    if (key == nullptr) break;
    const MachineField& field = *find_machine_field(key);
    std::uint64_t value = 0;
    std::string problem;
    if (field.parse != nullptr) {
      if (!field.parse(text, &value)) {
        problem = std::string("unknown ") + field.key + " (registered:";
        for (std::uint64_t v = 0; v <= field.max; ++v) {
          problem += std::string(v == 0 ? " " : ", ") + field.name(v);
        }
        problem += ")";
      }
    } else if (!(flag.size ? parse_size(text, &value)
                           : parse_whole(text, &value))) {
      problem = "not a whole number";
    } else {
      problem = field.range_problem(value);
    }
    if (!problem.empty()) {
      *error = std::string("bad ") + flag.flag + " " + text + ": " + problem;
      return false;
    }
    field.set(*machine, value);
  }
  return true;
}

/// A matrix axis flag: the singular form (`--protocol`) takes one name,
/// the plural (`--protocols`) a comma-separated list. The first kind is
/// also the machine's, so the manifest names a kind that ran.
template <typename Kind, std::size_t N>
bool parse_axis(const NameTable<Kind, N>& table, const std::string& flag,
                const std::string& value, std::vector<Kind>* kinds,
                Kind* machine, std::string* error) {
  if (flag.back() == 's') {
    if (!table.parse_list(value, flag.c_str(), kinds, error)) return false;
  } else if (Kind kind; table.parse(value, &kind)) {
    *kinds = {kind};
  } else {
    *error = std::string("unknown ") + table.noun + ": " + value +
             " (registered: " + table.joined() + ")";
    return false;
  }
  *machine = kinds->front();
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
  if (!parse_whole(digits, &value) || value > UINT64_MAX / scale) {
    return false;
  }
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
    } else if (arg == "--protocol" || arg == "--protocols") {
      if (!need_value(i, &value) ||
          !parse_axis(kProtocolNames, arg, value, &options->protocols,
                      &options->machine.protocol.kind, error)) {
        return false;
      }
    } else if (arg == "--directory" || arg == "--directories") {
      if (!need_value(i, &value) ||
          !parse_axis(kDirectoryNames, arg, value, &options->directories,
                      &options->machine.directory_scheme, error)) {
        return false;
      }
    } else if (arg == "--interconnect" || arg == "--interconnects") {
      if (!need_value(i, &value) ||
          !parse_axis(kInterconnectNames, arg, value, &options->interconnects,
                      &options->machine.interconnect, error)) {
        return false;
      }
    } else if (arg == "--list-protocols") {
      options->list_protocols = true;
    } else if (arg == "--list-directories") {
      options->list_directories = true;
    } else if (arg == "--list-interconnects") {
      options->list_interconnects = true;
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
      if (!parse_whole(value, &options->audit_capacity)) {
        *error = "bad --audit-capacity: " + value;
        return false;
      }
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
      if (!parse_whole(value, &options->jobs) || options->jobs < 0 ||
          options->jobs > 1024) {
        *error = "bad --jobs (expected 0..1024, 0 = all cores): " + value;
        return false;
      }
    } else if (arg == "--trace-capacity") {
      if (!need_value(i, &value)) return false;
      if (!parse_whole(value, &options->trace_capacity)) {
        *error = "bad --trace-capacity: " + value;
        return false;
      }
    } else if (arg == "--check-invariants") {
      options->machine.check_invariants = true;
    } else if (arg == "--compare") {
      options->compare = true;
      options->protocols = all_protocol_kinds();
      options->machine.protocol.kind = options->protocols.front();
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
    } else if (arg == "--false-sharing") {
      options->machine.classify_false_sharing = true;
    } else if (arg == "--seed") {
      if (!need_value(i, &value)) return false;
      if (!parse_whole(value, &options->seed)) {
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
    } else if (const auto* flag = std::find_if(
                   std::begin(kMachineFlags), std::end(kMachineFlags),
                   [&arg](const MachineFlag& f) { return arg == f.flag; });
               flag != std::end(kMachineFlags)) {
      if (!need_value(i, &value) ||
          !set_machine_flag(*flag, value, &options->machine, error)) {
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

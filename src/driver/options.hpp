// Command-line option parsing for the lssim_run driver.
//
// Kept in the library (rather than the tool binary) so the parsing rules
// are unit-testable. No external dependencies; the grammar is plain
// GNU-style long options:
//
//   lssim_run --workload oltp --protocol ls --procs 4
//             --l1 8k --l2 32k --assoc 2 --block 32
//             --topology ring --consistency pc --seed 7
//             --set txns_per_proc=500 --format csv --compare
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"

namespace lssim {

enum class OutputFormat : std::uint8_t { kText, kCsv, kJson };

inline constexpr NameTable<OutputFormat, 3> kOutputFormatNames{
    "format",
    {{
        {OutputFormat::kText, "text", ""},
        {OutputFormat::kCsv, "csv", ""},
        {OutputFormat::kJson, "json", ""},
    }}};

struct DriverOptions {
  std::string workload = "pingpong";
  std::vector<ProtocolKind> protocols{ProtocolKind::kBaseline};
  bool compare = false;  ///< Run Baseline+AD+LS+ILS side by side.
  /// Directory organisations to sweep (--directory/--directories). The
  /// driver runs the full protocols × directories matrix,
  /// protocol-major, so a single-directory invocation is byte-identical
  /// to the pre-matrix driver.
  std::vector<DirectoryKind> directories{DirectoryKind::kFullMap};
  /// Coherence transports to sweep (--interconnect/--interconnects).
  /// Third, innermost matrix axis: protocols × directories ×
  /// interconnects, so a single-network invocation stays byte-identical
  /// to the pre-seam driver.
  std::vector<InterconnectKind> interconnects{InterconnectKind::kNetwork};
  MachineConfig machine;
  std::uint64_t seed = 1;
  OutputFormat format = OutputFormat::kText;
  /// Free-form workload parameters (--set key=value), interpreted by the
  /// workload factory in driver/runner.cpp.
  std::map<std::string, std::string> params;
  // Telemetry outputs (empty = disabled; "-" = stdout where noted).
  std::string metrics_out;   ///< Metrics snapshots as JSON ("-" ok).
  std::string perfetto_out;  ///< Chrome trace-event / Perfetto JSON.
  std::string manifest_out;  ///< Versioned run manifest JSON.
  std::string latency_out;   ///< Ownership-latency report JSON ("-" ok).
  std::string audit_out;     ///< Tag-decision audit trail JSONL ("-" ok).
  /// Heartbeat JSONL stream ("-" = stderr, so results on stdout stay
  /// machine-parseable).
  std::string heartbeat_out;
  /// Seconds between heartbeat lines (0 = one per completed run).
  double heartbeat_interval = 10.0;
  /// Trace events kept per run; 0 means "default (1M) when --perfetto-out
  /// is set, else tracing off".
  std::size_t trace_capacity = 0;
  /// Audit records kept per run (last-N ring); 0 means "default (1M)
  /// when --audit-out is set, else auditing off".
  std::size_t audit_capacity = 0;
  /// Host worker threads for multi-protocol sweeps (--jobs). 0 = one per
  /// hardware thread. Results are deterministic for any value (see
  /// exec/parallel_executor.hpp).
  int jobs = 0;
  // Capture-once / replay-many (docs/PERFORMANCE.md). Any of these
  // switches the driver from execution-driven runs (the default, and the
  // ground truth for every figure) to trace replay.
  std::string capture_trace_out;  ///< Save the captured trace here.
  std::string replay_from;        ///< Replay a saved trace (else capture).
  bool replay_compare = false;    ///< Drive the matrix from one capture.
  /// Also execute every cell live and assert stat agreement with its
  /// replay (exit 5 on divergence).
  bool replay_crosscheck = false;
  // Discovery flags: print the registered names (one per line, exit 0)
  // and do nothing else — for scripts that build sweep matrices.
  bool list_protocols = false;
  bool list_directories = false;
  bool list_interconnects = false;
  bool show_help = false;

  /// True when any replay-mode option was given.
  [[nodiscard]] bool replay_mode() const noexcept {
    return replay_compare || replay_crosscheck || !replay_from.empty() ||
           !capture_trace_out.empty();
  }

  /// True when any --list-* discovery flag was given.
  [[nodiscard]] bool list_mode() const noexcept {
    return list_protocols || list_directories || list_interconnects;
  }
};

/// Parses argv into `options`. Returns true on success; on failure
/// `error` describes the offending argument.
bool parse_driver_args(int argc, const char* const* argv,
                       DriverOptions* options, std::string* error);

/// Whole-string parse of `text` into `out`: no leading blanks, a sign
/// only where T allows one, nothing trailing, nothing T cannot hold.
template <typename T>
bool parse_whole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// "64k" -> 65536, "1m" -> 1048576, "512" -> 512. Returns false on junk
/// and on sizes above 2^64 - 1.
bool parse_size(const std::string& text, std::uint64_t* out);

/// Usage text for --help.
[[nodiscard]] std::string driver_usage();

}  // namespace lssim

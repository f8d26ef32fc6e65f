// Versioned machine-readable run manifests.
//
// A manifest is the single JSON document a driver or bench binary emits
// per invocation (`--manifest-out`): the full configuration (workload,
// protocols, machine geometry, seed, workload parameters), host wall
// clock, and per-protocol results — the RunResult totals plus, when
// telemetry is on, the complete metrics snapshot. BENCH_*.json
// trajectories are built from these documents.
//
// Schema versioning policy (docs/OBSERVABILITY.md): `schema_version` is
// bumped on any field removal or meaning change; pure additions keep the
// version. Consumers must ignore unknown fields.
//
// Version history:
//   1 — initial schema.
//   2 — machine object records the configured `protocol` by registry name;
//       protocol names everywhere resolve through the protocol registry
//       (adds LS+AD). Version-1 documents still parse.
//       Later addition (version kept, per the policy above): run objects
//       carry an `ownership_latency` digest when the run's metrics
//       include the ownership.latency histograms
//       (telemetry/latency_report.hpp).
//   3 — machine object's `directory` field changes meaning: it is now the
//       registry name of the directory organisation (full-map,
//       limited-ptr, coarse, sparse) and is parsed on load, with the
//       organisation's knob alongside it (`directory_pointers`,
//       `directory_region` or `directory_entries`). Run objects record
//       the organisation they executed under (`directory`) and
//       `dir_entry_evictions`. Version-2 documents still parse.
//       Later addition (version kept): the machine object writes every
//       kMachineFields row (sim/machine_fields.hpp), latencies and
//       protocol knobs included, and its `protocol` is the first one run.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "workloads/harness.hpp"

namespace lssim {

inline constexpr std::uint32_t kManifestSchemaVersion = 3;

struct RunManifest {
  struct ProtocolRun {
    RunResult result;
    MetricsSnapshot metrics;  ///< Empty when telemetry was disabled.
  };

  std::uint32_t schema_version = kManifestSchemaVersion;
  std::string generator = "lssim";
  std::string workload;
  std::uint64_t seed = 1;
  std::map<std::string, std::string> params;  ///< --set key=value pairs.
  MachineConfig machine;
  double wall_seconds = 0.0;  ///< Host wall clock for the whole invocation.
  std::vector<ProtocolRun> runs;
};

/// Serialises one RunResult (every counter the text/CSV reports print).
[[nodiscard]] Json run_result_to_json(const RunResult& result);

/// Inverse of run_result_to_json; returns false + `*error` on bad input.
bool run_result_from_json(const Json& json, RunResult* out,
                          std::string* error);

[[nodiscard]] Json manifest_to_json(const RunManifest& manifest);

/// Parses a manifest document. Rejects documents whose schema_version is
/// newer than this build understands.
bool manifest_from_json(const Json& json, RunManifest* out,
                        std::string* error);

/// Convenience: parse from raw text.
bool manifest_from_text(std::string_view text, RunManifest* out,
                        std::string* error);

/// Pretty-prints the manifest document to `os` (newline-terminated).
void write_manifest(std::ostream& os, const RunManifest& manifest);

}  // namespace lssim

// Machine-configuration hashes: trace_config_hash for cached access
// traces and sweep_config_hash for results-store keys. Both mix the rows
// kMachineFields (sim/machine_fields.hpp) marks for them, in table order.
//
// A recorded trace is only meaningful against machines whose
// *protocol-insensitive* configuration matches the capture machine:
// which addresses exist and where they live, and the geometry, latencies
// and transport the per-record gaps were measured against. Protocol and
// directory-organisation knobs are deliberately excluded — sweeping
// those over one trace is the entire point of the capture-once/
// replay-many engine (trace/replay_compare.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace lssim {

/// Config-hash schema version recorded in capture-trace headers (the
/// trace format's minor version). Version 0 — implicit in files written
/// before the interconnect seam — hashes the original field set; version
/// 1 additionally covers the coherence transport (interconnect kind and
/// bus arbitration), so a bus capture can never be replayed against a
/// directory-network machine or vice versa.
inline constexpr std::uint32_t kTraceConfigHashVersion = 1;

/// FNV-1a hash over the protocol-insensitive MachineConfig fields, as
/// defined by `version` (clamped to the newest known schema). Stable
/// across runs and platforms (field-by-field, little-endian widths);
/// NOT stable across schema versions that add hashed fields — which is
/// the desired behaviour: a layout change invalidates cached traces.
[[nodiscard]] std::uint64_t trace_config_hash(
    const MachineConfig& config,
    std::uint32_t version = kTraceConfigHashVersion) noexcept;

/// `hash` as the fixed-width lowercase hex string used in mismatch
/// messages, e.g. "0x00c0ffee00c0ffee".
[[nodiscard]] std::string format_config_hash(std::uint64_t hash);

/// Inverse of format_config_hash (also accepts bare hex without the 0x
/// prefix). Returns false on junk.
bool parse_config_hash(std::string_view text, std::uint64_t* out) noexcept;

/// Sweep-key schema version recorded in results-store headers. Version 1
/// covers everything below; bumping it (because a hashed field was
/// added) invalidates stored completion keys, which is the desired
/// behaviour — a key-layout change must force re-execution.
inline constexpr std::uint32_t kSweepConfigHashVersion = 1;

/// FNV-1a key identifying one sweep cell: the full machine configuration
/// — *including* the protocol, directory-organisation and interconnect
/// knobs that trace_config_hash deliberately excludes — plus the
/// workload name, its parameter overrides and the seed. Two sweep cells
/// collide only if they would run the identical simulation, so the
/// results store can skip completed keys on resume. Same stability
/// contract as trace_config_hash: stable across runs and platforms, not
/// across schema versions.
[[nodiscard]] std::uint64_t sweep_config_hash(
    const MachineConfig& config, std::string_view workload,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t seed) noexcept;

}  // namespace lssim

// The MachineConfig field table: one row per machine field, keyed by its
// manifest key path ("num_nodes"; "l1.size_bytes" is member `size_bytes`
// of the nested object `l1`), which the repro format writes as is. The
// manifest's machine object, the repro format, trace_config_hash,
// sweep_config_hash and the range checks of MachineConfig::validate()
// all iterate it, so a new machine field needs one row here. Rows that
// share a group are adjacent; each hash mixes its rows in table order.
//
// Deliberately not rows: `telemetry` and `check_invariants` select what
// a run records and checks, not the machine it simulates.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/config.hpp"
#include "sim/field_row.hpp"

namespace lssim {

/// Which config hash mixes a row (trace/config_hash.hpp): the trace
/// hash from schema version 0 or from 1, the sweep hash, or neither. The
/// sweep hash mixes the trace hash first, so it covers trace rows too.
enum class Hashed : std::uint8_t { kNo, kTrace0, kTrace1, kSweep };

struct MachineField : FieldRow<MachineConfig> {
  std::uint64_t lo;  ///< Inclusive valid range, checked by validate().
  std::uint64_t hi;
  Hashed hashed;
  const char* why;  ///< What fixes the range (null = nothing to add).

  /// Empty when `value` is in [lo, hi], else the validate() message.
  [[nodiscard]] std::string range_problem(std::uint64_t value) const;
};

/// The row keyed `key`, or null.
[[nodiscard]] const MachineField* find_machine_field(std::string_view key);

namespace machine_fields {

using enum Hashed;
/// As a range bound: everything the member can hold.
inline constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// A number at `Path`, valid in [lo, hi].
template <auto... Path>
constexpr MachineField number(const char* key, Hashed hashed,
                              std::uint64_t lo = 0, std::uint64_t hi = kAll,
                              const char* why = nullptr) {
  const auto row = field_row::number<MachineConfig, Path...>(key);
  return {row, lo, hi < row.max ? hi : row.max, hashed, why};
}

/// An enum at `Path`, named through `Table`; every kind is valid.
template <const auto& Table, auto... Path>
constexpr MachineField named(const char* key, Hashed hashed) {
  const auto row = field_row::named<MachineConfig, Table, Path...>(key);
  return {row, 0, row.max, hashed, nullptr};
}

using M = MachineConfig;
using P = ProtocolConfig;
using C = CacheConfig;
using L = LatencyConfig;

inline constexpr char kGeometry[] = "cache geometry";
inline constexpr char kCounters[] = "3-bit progress counters in DirEntry";

inline constexpr MachineField kTable[] = {
    named<kProtocolNames, &M::protocol, &P::kind>("protocol", kSweep),
    number<&M::protocol, &P::default_tagged>("default_tagged", kSweep),
    number<&M::protocol, &P::tag_hysteresis>("tag_hysteresis", kSweep, 1, 7,
                                             kCounters),
    number<&M::protocol, &P::detag_hysteresis>("detag_hysteresis", kSweep, 1,
                                               7, kCounters),
    number<&M::protocol, &P::keep_tag_on_lone_write>("keep_tag_on_lone_write",
                                                     kSweep),
    number<&M::protocol, &P::ad_detag_on_replacement>(
        "ad_detag_on_replacement", kSweep),
    number<&M::protocol, &P::trust_update_sharers>("trust_update_sharers", kNo),
    number<&M::num_nodes>("num_nodes", kTrace0, 1, kMaxNodes),
    number<&M::page_bytes>("page_bytes", kTrace0, 8, kAll,
                           "the widest access is 8 bytes"),
    number<&M::l1, &C::size_bytes>("l1.size_bytes", kTrace0, 1, kAll,
                                   kGeometry),
    number<&M::l1, &C::assoc>("l1.assoc", kTrace0, 1, kAll, kGeometry),
    number<&M::l1, &C::block_bytes>("l1.block_bytes", kTrace0, 1, 256,
                                    kGeometry),
    number<&M::l2, &C::size_bytes>("l2.size_bytes", kTrace0, 1, kAll,
                                   kGeometry),
    number<&M::l2, &C::assoc>("l2.assoc", kTrace0, 1, kAll, kGeometry),
    number<&M::l2, &C::block_bytes>("l2.block_bytes", kTrace0, 1, 256,
                                    kGeometry),
    number<&M::latency, &L::l1_access>("latency.l1_access", kTrace0),
    number<&M::latency, &L::l2_access>("latency.l2_access", kTrace0),
    number<&M::latency, &L::l2_readout>("latency.l2_readout", kTrace0),
    number<&M::latency, &L::controller>("latency.controller", kTrace0),
    number<&M::latency, &L::memory>("latency.memory", kTrace0),
    number<&M::latency, &L::hop>("latency.hop", kTrace0),
    number<&M::latency, &L::fill>("latency.fill", kTrace0),
    number<&M::latency, &L::link_occupancy>("latency.link_occupancy",
                                            kTrace0),
    number<&M::word_bytes>("word_bytes", kTrace0, 1),
    named<kConsistencyNames, &M::consistency>("consistency", kTrace0),
    number<&M::write_buffer_depth>("write_buffer_depth", kTrace0, 1),
    named<kTopologyNames, &M::topology>("topology", kTrace0),
    named<kInterconnectNames, &M::interconnect>("interconnect", kTrace1),
    named<kBusArbitrationNames, &M::bus_arbitration>("bus_arbitration",
                                                     kTrace1),
    named<kDirectoryNames, &M::directory_scheme>("directory", kSweep),
    number<&M::directory_pointers>(
        "directory_pointers", kSweep, 1, 7,
        "Dir_iB pointers share the entry's sharer word with a control byte"),
    number<&M::directory_region>("directory_region", kSweep, 0, kMaxNodes),
    number<&M::directory_entries>("directory_entries", kSweep),
    number<&M::classify_false_sharing>("classify_false_sharing", kSweep),
    number<&M::max_cycles>("max_cycles", kNo),
};

}  // namespace machine_fields

inline constexpr const auto& kMachineFields = machine_fields::kTable;

}  // namespace lssim

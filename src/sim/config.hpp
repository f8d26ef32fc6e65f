// Machine, protocol and latency configuration (paper Table 1 / Figure 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/name_table.hpp"
#include "sim/types.hpp"

namespace lssim {

/// Which coherence technique the memory system runs. Each kind is one
/// row of the protocol registry (src/core/protocol_registry.cpp): a tag
/// rule (src/core/tag_rules.hpp) over a base protocol.
///   kBaseline — DASH-like full-map write-invalidate protocol.
///   kAd       — adaptive migratory-sharing optimization
///               (Stenström/Brorsson/Sandberg, ISCA'93); the paper's "AD".
///   kLs       — the paper's load-store protocol extension.
///   kIls      — instruction-centric load-exclusive prediction (related
///               work: Kaxiras/Goodman HPCA'99, Nilsson/Dahlgren
///               ICPP'99); an extension for comparison, see
///               core/ils_predictor.hpp.
///   kLsAd     — LS tagging with AD's migratory detection as fallback
///               (the paper's §6 combination).
///   kMesi     — classic MESI (Illinois): cold reads of uncached blocks
///               return an Exclusive copy; never tags.
///   kMoesi    — MESI plus an Owned state: a dirty owner services read
///               misses cache-to-cache and keeps the (stale-at-home)
///               block.
///   kDragon   — write-update (Dragon): writes to shared blocks update
///               the remote copies instead of invalidating them.
///   kLsMesi   — the paper's LS tagging composed over MESI.
///   kLsDragon — LS tagging composed over Dragon write-update.
enum class ProtocolKind : std::uint8_t {
  kBaseline,
  kAd,
  kLs,
  kIls,
  kLsAd,
  kMesi,
  kMoesi,
  kDragon,
  kLsMesi,
  kLsDragon,
};

inline constexpr int kNumProtocolKinds = 10;

/// The protocol names. Adding a protocol means one row here plus one
/// registry row (tag rule and base) in core/protocol_registry.cpp.
inline constexpr NameTable<ProtocolKind, kNumProtocolKinds> kProtocolNames{
    "protocol",
    {{
        {ProtocolKind::kBaseline, "Baseline", "base wi"},
        {ProtocolKind::kAd, "AD", "migratory"},
        {ProtocolKind::kLs, "LS", ""},
        {ProtocolKind::kIls, "ILS", "instruction"},
        {ProtocolKind::kLsAd, "LS+AD", "lsad ls-ad hybrid"},
        {ProtocolKind::kMesi, "MESI", "illinois"},
        {ProtocolKind::kMoesi, "MOESI", "owned"},
        {ProtocolKind::kDragon, "Dragon", "update write-update"},
        {ProtocolKind::kLsMesi, "LS+MESI", "lsmesi ls-mesi"},
        {ProtocolKind::kLsDragon, "LS+Dragon", "lsdragon ls-dragon"},
    }}};

[[nodiscard]] constexpr const char* to_string(ProtocolKind kind) noexcept {
  return kProtocolNames.name(kind);
}

/// Geometry of one cache level. Sizes in bytes; direct-mapped is assoc 1.
struct CacheConfig {
  std::uint32_t size_bytes = 0;
  std::uint32_t assoc = 1;
  std::uint32_t block_bytes = 16;

  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return size_bytes / (assoc * block_bytes);
  }
  [[nodiscard]] bool operator==(const CacheConfig&) const = default;
};

/// Component latencies (cycles), Figure 2 / Table 1. The composition rules
/// live in core/protocol.cpp; with these defaults an uncontended read miss
/// costs exactly 100 (local), 220 (2-hop clean) and 420 (4-hop read-on-
/// dirty) cycles, matching the paper's Table 1.
struct LatencyConfig {
  Cycles l1_access = 1;    ///< L1 hit.
  Cycles l2_access = 10;   ///< L2 tag+data access.
  Cycles l2_readout = 20;  ///< Reading a dirty block out of a remote L2.
  Cycles controller = 20;  ///< One pass through a node's memory controller.
  Cycles memory = 40;      ///< DRAM / directory access (done in parallel).
  Cycles hop = 40;         ///< One network traversal.
  Cycles fill = 10;        ///< Refilling the local cache on reply.
  /// How long a message occupies its source->dest link (contention model).
  Cycles link_occupancy = 8;
  [[nodiscard]] bool operator==(const LatencyConfig&) const = default;
};

/// Knobs for the LS / AD techniques (paper §3.1 and §5.5 variations).
struct ProtocolConfig {
  ProtocolKind kind = ProtocolKind::kBaseline;

  /// §5.5: treat every block as tagged from the start (first cold read
  /// returns an exclusive copy).
  bool default_tagged = false;

  /// §5.5: hysteresis depth for tagging. 1 = tag on the first qualifying
  /// event (the paper's default); 2 = require two consecutive events.
  std::uint8_t tag_hysteresis = 1;

  /// §5.5: hysteresis depth for de-tagging (1 = immediate, the default).
  std::uint8_t detag_hysteresis = 1;

  /// §5.5 heuristic: keep the LS bit when an ownership request arrives
  /// that was not preceded by a read from the same processor.
  bool keep_tag_on_lone_write = false;

  /// AD only: the migratory property is dropped when the owning copy is
  /// replaced (the hand-off chain is broken — the fragility the paper's
  /// §3.1 exploits). With false, AD's tag persists across replacements
  /// like the LS bit does; kept as a knob because Stenström et al. leave
  /// the case under-specified. The default reproduces the paper's
  /// measured AD coverage (Table 3).
  bool ad_detag_on_replacement = true;

  /// Fault injection (verification only — never set in experiments):
  /// during a write-update fan-out, trust the directory's believed
  /// sharer set instead of probing each target cache, so a cache that
  /// silently evicted the block (or a non-holder covered by an imprecise
  /// believed set) is re-recorded as a sharer of the resulting Owned
  /// entry. Restores a historical update-propagation bug; exists so the
  /// checker selftests and tests/check/repros/dragon-update-
  /// propagation.repro can prove the invariant checker catches the
  /// class. Inert under invalidation-based protocols.
  bool trust_update_sharers = false;
  [[nodiscard]] bool operator==(const ProtocolConfig&) const = default;
};

/// Directory organisation. Each kind is backed by a DirectoryPolicy
/// implementation (src/core/directories/) resolved through the directory
/// registry (src/core/directory_registry.hpp).
///   kFullMap      — one presence bit per node (the paper's machine);
///                   exact sharer knowledge, at most kFullMapNodes nodes.
///   kLimitedPtr   — Dir_iB (Agarwal et al., ISCA'88):
///                   `directory_pointers` sharer pointers stored in the
///                   entry; when they overflow, the directory falls back
///                   to broadcast invalidation and loses precise-sharer
///                   knowledge (which also blinds AD's migratory
///                   detection — the LS bit needs no sharer list and is
///                   unaffected).
///   kCoarseVector — coarse bit-vector (Gupta et al.): each presence bit
///                   covers a region of `directory_region` consecutive
///                   nodes; invalidations go to whole regions.
///   kSparse       — sparse directory / directory cache (Gupta et al.,
///                   O'Krafka & Newton): at most `directory_entries`
///                   entries; inserting into a full directory evicts a
///                   victim entry, force-invalidating its cached copies.
enum class DirectoryKind : std::uint8_t {
  kFullMap,
  kLimitedPtr,
  kCoarseVector,
  kSparse,
};

inline constexpr int kNumDirectoryKinds = 4;

/// The directory-organisation names. Adding an organisation means one
/// row here plus one registration in core/directory_registry.cpp.
inline constexpr NameTable<DirectoryKind, kNumDirectoryKinds>
    kDirectoryNames{
        "directory organisation",
        {{
            {DirectoryKind::kFullMap, "full-map", "fullmap full"},
            {DirectoryKind::kLimitedPtr, "limited-ptr",
             "limited dir-ib dirib"},
            {DirectoryKind::kCoarseVector, "coarse", "coarse-vector region"},
            {DirectoryKind::kSparse, "sparse", "directory-cache dir-cache"},
        }}};

[[nodiscard]] constexpr const char* to_string(DirectoryKind kind) noexcept {
  return kDirectoryNames.name(kind);
}

/// Interconnection topology (paper baseline: fixed-delay point-to-point,
/// i.e. a crossbar; ring and 2D mesh are extensions for sensitivity
/// studies — see net/network.hpp).
enum class Topology : std::uint8_t { kCrossbar, kRing, kMesh2D };

inline constexpr NameTable<Topology, 3> kTopologyNames{
    "topology",
    {{
        {Topology::kCrossbar, "crossbar", "xbar p2p"},
        {Topology::kRing, "ring", ""},
        {Topology::kMesh2D, "mesh2d", "mesh"},
    }}};

[[nodiscard]] constexpr const char* to_string(Topology t) noexcept {
  return kTopologyNames.name(t);
}

/// Coherence transport under the transaction engine. Each kind is backed
/// by an Interconnect implementation (src/net/interconnect.hpp) created
/// by make_interconnect().
///   kNetwork — the directory machine's point-to-point network
///              (net/network.hpp); messages route per `topology`.
///   kBus     — a snooping shared bus (net/snoop_bus.hpp): every
///              transaction is broadcast, so directed forward/invalidate
///              legs become free snoop hits and the bus serialises all
///              traffic through one arbiter.
enum class InterconnectKind : std::uint8_t { kNetwork, kBus };

inline constexpr int kNumInterconnectKinds = 2;

/// Bus arbitration discipline under InterconnectKind::kBus (the two
/// service disciplines of the shared-bus reference model).
///   kFcfs       — first-come-first-served: grants in arrival order.
///   kRoundRobin — rotating priority: a contended grant first walks the
///                 rotation from the last grantee to the requester.
enum class BusArbitration : std::uint8_t { kFcfs, kRoundRobin };

/// The transport names. Adding one means a row here plus a case in
/// make_interconnect() (net/snoop_bus.cpp).
inline constexpr NameTable<InterconnectKind, kNumInterconnectKinds>
    kInterconnectNames{
        "interconnect",
        {{
            {InterconnectKind::kNetwork, "network", "directory dir net"},
            {InterconnectKind::kBus, "bus", "snooping snoop shared-bus"},
        }}};

[[nodiscard]] constexpr const char* to_string(InterconnectKind kind) noexcept {
  return kInterconnectNames.name(kind);
}

inline constexpr NameTable<BusArbitration, 2> kBusArbitrationNames{
    "bus arbitration",
    {{
        {BusArbitration::kFcfs, "fcfs", ""},
        {BusArbitration::kRoundRobin, "round-robin", "rr"},
    }}};

[[nodiscard]] constexpr const char* to_string(BusArbitration a) noexcept {
  return kBusArbitrationNames.name(a);
}

/// Memory consistency model (paper §6 discussion).
///   kSc — sequential consistency: the processor stalls for the full
///         latency of every L2 miss, reads and writes (paper default).
///   kPc — processor consistency: plain stores retire into a finite
///         per-processor write buffer and only stall when it is full;
///         reads and atomic RMWs remain blocking. Models the paper's
///         prediction that relaxed models shrink the write-stall benefit
///         while the traffic benefit stays.
enum class ConsistencyModel : std::uint8_t { kSc, kPc };

inline constexpr NameTable<ConsistencyModel, 2> kConsistencyNames{
    "consistency model",
    {{
        {ConsistencyModel::kSc, "SC", ""},
        {ConsistencyModel::kPc, "PC", ""},
    }}};

[[nodiscard]] constexpr const char* to_string(ConsistencyModel m) noexcept {
  return kConsistencyNames.name(m);
}

/// Observability knobs (see src/telemetry/): what the Telemetry sink
/// keeps of the engine's coherence events. All default off; with every
/// knob off the engine's one hook is a null-pointer branch.
struct TelemetryConfig {
  /// Registers and maintains the named metrics registry (per-node protocol
  /// event counters, cache/network/directory counters, latency histograms).
  bool metrics = false;

  /// When nonzero, the memory system records the first N coherence
  /// spans/instants for Perfetto export (telemetry/coherence_trace.hpp).
  std::size_t trace_capacity = 0;

  /// When nonzero, the memory system records the last N tag-decision
  /// audit records (tag/de-tag/hysteresis transitions with reason codes)
  /// in a ring for `--audit-out` (telemetry/audit.hpp).
  std::size_t audit_capacity = 0;

  /// When nonzero, the last N coherence events are kept in a ring for
  /// debugging (telemetry/coherence_event.hpp).
  std::size_t event_log_capacity = 0;

  [[nodiscard]] bool any() const noexcept {
    return metrics || trace_capacity > 0 || audit_capacity > 0 ||
           event_log_capacity > 0;
  }
  [[nodiscard]] bool operator==(const TelemetryConfig&) const = default;
};

/// Whole-machine configuration.
struct MachineConfig {
  int num_nodes = 4;
  std::uint32_t page_bytes = 4096;  ///< Round-robin home interleaving unit.
  CacheConfig l1{4 * 1024, 1, 16};
  CacheConfig l2{64 * 1024, 1, 16};
  LatencyConfig latency;
  ProtocolConfig protocol;
  /// Word size for the Dubois false-sharing classifier; tracking is
  /// enabled per run because it costs memory.
  std::uint32_t word_bytes = 4;
  bool classify_false_sharing = false;

  ConsistencyModel consistency = ConsistencyModel::kSc;
  /// Write-buffer entries per processor under kPc.
  std::uint8_t write_buffer_depth = 8;

  Topology topology = Topology::kCrossbar;

  /// Coherence transport (see InterconnectKind above). `topology` only
  /// applies under kNetwork; the bus ignores it.
  InterconnectKind interconnect = InterconnectKind::kNetwork;
  /// Arbitration discipline under InterconnectKind::kBus.
  BusArbitration bus_arbitration = BusArbitration::kFcfs;

  DirectoryKind directory_scheme = DirectoryKind::kFullMap;
  /// Sharer pointers per entry under kLimitedPtr (Dir_iB); 1..7 (the
  /// pointers share the entry's 64-bit sharer word with a control byte).
  std::uint8_t directory_pointers = 4;
  /// Nodes covered per presence bit under kCoarseVector; 0 = auto
  /// (ceil(num_nodes / 64), the smallest region that fits the machine —
  /// which is 1, i.e. exact full-map behaviour, up to 64 nodes).
  std::uint16_t directory_region = 0;
  /// Directory entries under kSparse; 0 = auto (1024). Inserting past
  /// this bound evicts a victim entry and invalidates its cached copies.
  std::uint32_t directory_entries = 0;

  /// Observability: metrics, coherence trace, audit trail, event log.
  TelemetryConfig telemetry;

  /// Attach the protocol invariant checker (src/check/invariants.hpp) to
  /// the memory system and verify SWMR / data-value / directory-cache
  /// agreement / LS-tag consistency after every access. Off (default)
  /// costs one pointer compare per access; on costs a full directory ×
  /// cache scan per access — a verification mode, not a measurement mode.
  bool check_invariants = false;

  /// Watchdog: when nonzero, System::run() stops once any processor's
  /// clock passes this budget and reports timed_out() — turning workload
  /// livelocks (e.g. an unfair lock under a pathological schedule) into
  /// a diagnosable condition instead of a hung process.
  Cycles max_cycles = 0;

  /// Baseline configuration used for the scientific applications
  /// (paper §4.2): 4 kB DM L1, 64 kB DM L2, 16-byte blocks.
  [[nodiscard]] static MachineConfig scientific_default(
      ProtocolKind kind = ProtocolKind::kBaseline, int nodes = 4);

  /// OLTP configuration (paper §4.2): 64 kB 2-way L1, 512 kB DM L2,
  /// 32-byte blocks.
  [[nodiscard]] static MachineConfig oltp_default(
      ProtocolKind kind = ProtocolKind::kBaseline, int nodes = 4);

  /// Checks each field's range (sim/machine_fields.hpp), then the rules
  /// that span fields; returns an empty string when valid, otherwise a
  /// description of the problem.
  [[nodiscard]] std::string validate() const;

  [[nodiscard]] bool operator==(const MachineConfig&) const = default;
};

}  // namespace lssim

// Pins trace_config_hash (schema versions 0 and 1) and sweep_config_hash
// to fixed values. Captured traces carry the trace hash and the
// checked-in sweep baseline (bench/SWEEP_baseline.jsonl) carries the
// sweep hash, so a change to the fields a hash mixes, or to their order,
// must fail here rather than silently orphan those files. Across the
// configs below every hashed MachineConfig field takes a non-default
// value at least once.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/config_hash.hpp"

namespace lssim {
namespace {

struct Pin {
  const char* name;
  void (*apply)(MachineConfig& m);
  std::uint64_t trace_v0;
  std::uint64_t trace_v1;
  std::uint64_t sweep;
};

const Pin kPins[] = {
    {"scientific default", [](MachineConfig&) {}, 0xc3d7b27b3fe19a5dull,
     0xa48a14e6ef61e99dull, 0x7e93220467d632d2ull},
    {"oltp default",
     [](MachineConfig& m) { m = MachineConfig::oltp_default(); },
     0x28237f7f0c1b25d6ull, 0xd5ed679d9afeab56ull, 0x5d9b534817e34467ull},
    {"geometry",
     [](MachineConfig& m) {
       m.num_nodes = 16;
       m.page_bytes = 8192;
       m.l1 = CacheConfig{8192, 2, 32};
       m.l2 = CacheConfig{131072, 4, 32};
       m.word_bytes = 8;
     },
     0xe9330ebb2bef4788ull, 0x75b3b0d48c9de988ull, 0x34a79ee8041fa27aull},
    {"latencies",
     [](MachineConfig& m) {
       m.latency = LatencyConfig{2, 11, 21, 22, 43, 47, 13, 9};
     },
     0x53cdaf7fecf1303eull, 0x1aa8aa7f54d90fbeull, 0x5b4925be808946ffull},
    {"consistency and topology",
     [](MachineConfig& m) {
       m.consistency = ConsistencyModel::kPc;
       m.write_buffer_depth = 3;
       m.topology = Topology::kMesh2D;
     },
     0xd4440e450d2fa275ull, 0x9de33b23d2ec37b5ull, 0xf288c768aa5985b8ull},
    {"bus transport",
     [](MachineConfig& m) {
       m.topology = Topology::kRing;
       m.interconnect = InterconnectKind::kBus;
       m.bus_arbitration = BusArbitration::kRoundRobin;
     },
     0xa4dceb7234f2503cull, 0xade5ba6a3a1dcd5cull, 0x3502379ad19d2fbeull},
    {"protocol knobs",
     [](MachineConfig& m) {
       m.protocol.kind = ProtocolKind::kLsAd;
       m.protocol.default_tagged = true;
       m.protocol.tag_hysteresis = 2;
       m.protocol.detag_hysteresis = 3;
       m.protocol.keep_tag_on_lone_write = true;
       m.protocol.ad_detag_on_replacement = false;
     },
     0xc3d7b27b3fe19a5dull, 0xa48a14e6ef61e99dull, 0xbf7209ce34ace646ull},
    {"limited pointers",
     [](MachineConfig& m) {
       m.protocol.kind = ProtocolKind::kLsDragon;
       m.directory_scheme = DirectoryKind::kLimitedPtr;
       m.directory_pointers = 2;
       m.classify_false_sharing = true;
     },
     0xc3d7b27b3fe19a5dull, 0xa48a14e6ef61e99dull, 0x3002a566b9c2ae7bull},
    {"coarse regions",
     [](MachineConfig& m) {
       m.directory_scheme = DirectoryKind::kCoarseVector;
       m.directory_region = 2;
     },
     0xc3d7b27b3fe19a5dull, 0xa48a14e6ef61e99dull, 0xb6a07ce149392952ull},
    {"sparse entries",
     [](MachineConfig& m) {
       m.directory_scheme = DirectoryKind::kSparse;
       m.directory_entries = 64;
     },
     0xc3d7b27b3fe19a5dull, 0xa48a14e6ef61e99dull, 0xc8754100521cfc3full},
};

std::uint64_t sweep_hash(const MachineConfig& m) {
  const std::vector<std::pair<std::string, std::string>> params{
      {"hot_accounts", "16"}, {"txns_per_proc", "50"}};
  return sweep_config_hash(m, "oltp", params, 7);
}

TEST(ConfigHashPin, TraceAndSweepHashesKeepTheirValues) {
  for (const Pin& pin : kPins) {
    MachineConfig m = MachineConfig::scientific_default();
    pin.apply(m);
    // Compared as hex strings so a failure prints paste-ready values.
    EXPECT_EQ(format_config_hash(trace_config_hash(m, 0)),
              format_config_hash(pin.trace_v0))
        << pin.name;
    EXPECT_EQ(format_config_hash(trace_config_hash(m, 1)),
              format_config_hash(pin.trace_v1))
        << pin.name;
    EXPECT_EQ(format_config_hash(sweep_hash(m)),
              format_config_hash(pin.sweep))
        << pin.name;
    EXPECT_EQ(trace_config_hash(m), trace_config_hash(m, 1)) << pin.name;
  }
}

TEST(ConfigHashPin, RunModesAndTheWatchdogAreNotHashed) {
  MachineConfig base = MachineConfig::scientific_default();
  MachineConfig m = base;
  m.max_cycles = 12345;
  m.check_invariants = true;
  m.telemetry.metrics = true;
  m.telemetry.trace_capacity = 64;
  m.protocol.trust_update_sharers = true;
  EXPECT_EQ(trace_config_hash(m, 0), trace_config_hash(base, 0));
  EXPECT_EQ(trace_config_hash(m, 1), trace_config_hash(base, 1));
  EXPECT_EQ(sweep_hash(m), sweep_hash(base));
}

}  // namespace
}  // namespace lssim

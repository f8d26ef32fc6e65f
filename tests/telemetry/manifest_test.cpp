// Tests for the versioned run manifest: schema round-trips, version
// policy, and end-to-end agreement between the metrics snapshot and the
// RunResult totals.
#include "telemetry/manifest.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "driver/runner.hpp"

namespace lssim {
namespace {

RunManifest make_manifest() {
  RunManifest manifest;
  manifest.workload = "oltp";
  manifest.seed = 99;
  manifest.params["txns_per_proc"] = "500";
  manifest.params["hot_accounts"] = "16";
  manifest.machine.num_nodes = 8;
  manifest.machine.protocol.kind = ProtocolKind::kLsAd;
  manifest.machine.topology = Topology::kRing;
  manifest.machine.consistency = ConsistencyModel::kPc;
  manifest.machine.l1.size_bytes = 8192;
  manifest.machine.classify_false_sharing = true;
  manifest.machine.interconnect = InterconnectKind::kBus;
  manifest.machine.bus_arbitration = BusArbitration::kRoundRobin;
  manifest.wall_seconds = 1.5;

  RunManifest::ProtocolRun run;
  run.result.protocol = ProtocolKind::kLs;
  run.result.interconnect = InterconnectKind::kBus;
  run.result.exec_time = 123456;
  run.result.time = TimeBreakdown{1000, 2000, 3000};
  run.result.global_read_misses = 77;
  run.result.eliminated_acquisitions = 33;
  run.result.update_transactions = 11;
  run.result.updates_sent = 22;
  run.result.read_miss_home = {1, 2, 3, 4};
  manifest.runs.push_back(run);
  return manifest;
}

TEST(ManifestTest, RoundTripPreservesEveryField) {
  const RunManifest manifest = make_manifest();
  std::ostringstream os;
  write_manifest(os, manifest);

  RunManifest back;
  std::string error;
  ASSERT_TRUE(manifest_from_text(os.str(), &back, &error)) << error;

  EXPECT_EQ(back.schema_version, kManifestSchemaVersion);
  EXPECT_EQ(back.generator, "lssim");
  EXPECT_EQ(back.workload, "oltp");
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.params.at("txns_per_proc"), "500");
  EXPECT_EQ(back.params.at("hot_accounts"), "16");
  EXPECT_TRUE(back.machine == manifest.machine);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 1.5);

  ASSERT_EQ(back.runs.size(), 1u);
  const RunResult& r = back.runs[0].result;
  EXPECT_EQ(r.protocol, ProtocolKind::kLs);
  EXPECT_EQ(r.interconnect, InterconnectKind::kBus);
  EXPECT_EQ(r.exec_time, 123456u);
  EXPECT_EQ(r.time.busy, 1000u);
  EXPECT_EQ(r.time.read_stall, 2000u);
  EXPECT_EQ(r.time.write_stall, 3000u);
  EXPECT_EQ(r.global_read_misses, 77u);
  EXPECT_EQ(r.eliminated_acquisitions, 33u);
  EXPECT_EQ(r.update_transactions, 11u);
  EXPECT_EQ(r.updates_sent, 22u);
  EXPECT_EQ(r.read_miss_home, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
}

TEST(ManifestTest, RejectsNewerSchemaVersion) {
  std::ostringstream os;
  write_manifest(os, make_manifest());
  std::string text = os.str();
  const std::string needle = "\"schema_version\": 3";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"schema_version\": 999");

  RunManifest back;
  std::string error;
  EXPECT_FALSE(manifest_from_text(text, &back, &error));
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
}

TEST(ManifestTest, MissingSchemaVersionIsRejected) {
  RunManifest back;
  std::string error;
  EXPECT_FALSE(manifest_from_text(R"({"runs":[]})", &back, &error));
  EXPECT_FALSE(error.empty());
}

// Counters and machine values take whole numbers that fit their field;
// anything else is refused with the field's name, never converted.
TEST(ManifestTest, RejectsCountersThatAreNotWholeNumbers) {
  const char* const cases[][2] = {
      {R"({"accesses": 1e30})", "'accesses'"},
      {R"({"accesses": -5})", "'accesses'"},
      {R"({"accesses": 2.5})", "'accesses'"},
      {R"({"time": {"busy": -1}})", "'time.busy'"},
      {R"({"read_miss_home": [1, 2, 0.5, 4]})", "'read_miss_home.2'"},
  };
  for (const auto& [text, field] : cases) {
    std::string error;
    const Json json = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    RunResult result;
    EXPECT_FALSE(run_result_from_json(json, &result, &error)) << text;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

TEST(ManifestTest, RejectsMachineValuesThatOverflowTheirField) {
  const char* const cases[][2] = {
      {R"({"l1": {"size_bytes": 4294967296}})", "'size_bytes'"},
      {R"({"num_nodes": 5000000000})", "'num_nodes'"},
      {R"({"directory_pointers": 256})", "'directory_pointers'"},
  };
  for (const auto& [machine, field] : cases) {
    const std::string text = std::string(R"({"schema_version": 3, )") +
                             R"("machine": )" + machine + R"(, "runs": []})";
    RunManifest back;
    std::string error;
    EXPECT_FALSE(manifest_from_text(text, &back, &error)) << machine;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

// A machine object as schema 3 wrote it before it carried every field:
// the organisation's knob and bus arbitration only where they applied,
// no latencies, protocol knobs, word size, write buffer or watchdog.
TEST(ManifestTest, SchemaThreeMachineObjectsStillParse) {
  const char* text = R"({"schema_version": 3, "runs": [], "machine": {
      "protocol": "LS", "num_nodes": 8, "page_bytes": 4096,
      "l1": {"size_bytes": 8192, "assoc": 2, "block_bytes": 32},
      "l2": {"size_bytes": 65536, "assoc": 1, "block_bytes": 32},
      "topology": "ring", "consistency": "PC", "directory": "limited-ptr",
      "directory_pointers": 2, "interconnect": "bus",
      "bus_arbitration": "round-robin", "classify_false_sharing": true}})";
  RunManifest back;
  std::string error;
  ASSERT_TRUE(manifest_from_text(text, &back, &error)) << error;
  MachineConfig expected;
  expected.protocol.kind = ProtocolKind::kLs;
  expected.num_nodes = 8;
  expected.l1 = CacheConfig{8192, 2, 32};
  expected.l2 = CacheConfig{65536, 1, 32};
  expected.topology = Topology::kRing;
  expected.consistency = ConsistencyModel::kPc;
  expected.directory_scheme = DirectoryKind::kLimitedPtr;
  expected.directory_pointers = 2;
  expected.interconnect = InterconnectKind::kBus;
  expected.bus_arbitration = BusArbitration::kRoundRobin;
  expected.classify_false_sharing = true;
  EXPECT_TRUE(back.machine == expected);
}

TEST(ManifestTest, MachineNamesAcceptAliasesCaseInsensitively) {
  const char* text = R"({"schema_version": 3, "runs": [], "machine": {
      "topology": "Mesh", "consistency": "pc", "interconnect": "SNOOP",
      "bus_arbitration": "RR", "directory": "dir-ib"}})";
  RunManifest back;
  std::string error;
  ASSERT_TRUE(manifest_from_text(text, &back, &error)) << error;
  EXPECT_EQ(back.machine.topology, Topology::kMesh2D);
  EXPECT_EQ(back.machine.consistency, ConsistencyModel::kPc);
  EXPECT_EQ(back.machine.interconnect, InterconnectKind::kBus);
  EXPECT_EQ(back.machine.bus_arbitration, BusArbitration::kRoundRobin);
  EXPECT_EQ(back.machine.directory_scheme, DirectoryKind::kLimitedPtr);
}

TEST(ManifestTest, UnknownFieldsAreIgnored) {
  // Additions keep the schema version; older consumers (and this parser)
  // must skip fields they do not understand.
  const char* text = R"({
    "schema_version": 1,
    "future_field": {"nested": [1, 2, 3]},
    "workload": "lu",
    "runs": [{"result": {"protocol": "AD", "exec_cycles": 5,
                         "another_future_field": true}}]
  })";
  RunManifest back;
  std::string error;
  ASSERT_TRUE(manifest_from_text(text, &back, &error)) << error;
  EXPECT_EQ(back.workload, "lu");
  ASSERT_EQ(back.runs.size(), 1u);
  EXPECT_EQ(back.runs[0].result.protocol, ProtocolKind::kAd);
  EXPECT_EQ(back.runs[0].result.exec_time, 5u);
}

TEST(ManifestTest, DerivedRatiosAreEmittedForConsumers) {
  RunResult result;
  result.protocol = ProtocolKind::kBaseline;
  result.global_write_actions = 10;
  result.invalidations = 14;
  const Json json = run_result_to_json(result);
  const Json* derived = json.find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_DOUBLE_EQ(derived->find("invalidations_per_write")->as_double(),
                   1.4);
}

// End-to-end acceptance: the manifest's metric snapshot must agree with
// the RunResult totals for the same run.
TEST(ManifestTest, EndToEndMetricsAgreeWithRunResult) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kBaseline, ProtocolKind::kLs};
  options.manifest_out = "unused";  // Enables metrics capture.

  RunManifest manifest;
  manifest.workload = options.workload;
  manifest.seed = options.seed;
  manifest.machine = options.machine;
  for (ProtocolKind kind : options.protocols) {
    DriverRun run = run_driver_workload_captured(options, kind);
    manifest.runs.push_back(
        RunManifest::ProtocolRun{run.result, run.metrics});
  }

  // Round-trip through the serialized form first: agreement must hold on
  // what a consumer actually reads, not just in memory.
  std::ostringstream os;
  write_manifest(os, manifest);
  RunManifest back;
  std::string error;
  ASSERT_TRUE(manifest_from_text(os.str(), &back, &error)) << error;

  ASSERT_EQ(back.runs.size(), 2u);
  for (const RunManifest::ProtocolRun& run : back.runs) {
    const RunResult& r = run.result;
    const MetricsSnapshot& m = run.metrics;
    ASSERT_FALSE(m.empty());
    EXPECT_EQ(m.counter_total("coherence.read-miss"), r.global_read_misses);
    EXPECT_EQ(m.counter_total("coherence.upgrade"),
              r.ownership_acquisitions);
    EXPECT_EQ(m.counter_total("coherence.local-write"),
              r.eliminated_acquisitions);
    EXPECT_EQ(m.counter_total("sys.accesses"), r.accesses);
    EXPECT_EQ(m.counter_total("net.messages"), r.traffic_total);
  }
  // The LS run must actually have eliminated acquisitions, or the
  // local-write assertion above is vacuous.
  EXPECT_GT(back.runs[1].result.eliminated_acquisitions, 0u);
}

}  // namespace
}  // namespace lssim

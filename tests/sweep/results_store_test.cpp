#include "sweep/results_store.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/json.hpp"

namespace lssim {
namespace {

namespace fs = std::filesystem;

std::string temp_store(const char* name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  return path.string();
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

SweepRecord sample_record(std::uint64_t hash) {
  SweepRecord record;
  record.config_hash = hash;
  record.label = "pingpong/LS/full-map/network/n2/l1=4096/l2=65536/b16";
  record.workload = "pingpong";
  record.params = {{"rounds", "50"}};
  record.seed = 1;
  record.nodes = 2;
  record.l1_bytes = 4096;
  record.l2_bytes = 65536;
  record.block_bytes = 16;
  record.wall_seconds = 0.0;
  record.result.exec_time = 1234;
  record.result.traffic_total = 99;
  return record;
}

ResultsStore::Provenance sample_provenance() {
  ResultsStore::Provenance p;
  p.git_commit = "0123456789abcdef0123456789abcdef01234567";
  p.host_hardware_concurrency = 8;
  p.jobs = 2;
  return p;
}

TEST(ResultsStore, CreatesHeaderAndRoundTripsRecords) {
  const std::string path = temp_store("store_roundtrip.jsonl");
  {
    ResultsStore store;
    std::string error;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x22), &error)) << error;
    EXPECT_TRUE(store.contains(0x11));
    EXPECT_FALSE(store.contains(0x33));
  }
  const std::string text = read_all(path);
  EXPECT_NE(text.find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(text.find("\"git_commit\""), std::string::npos);

  std::vector<SweepRecord> records;
  std::string error;
  ASSERT_TRUE(ResultsStore::load(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].config_hash, 0x11u);
  EXPECT_EQ(records[0].workload, "pingpong");
  ASSERT_EQ(records[0].params.size(), 1u);
  EXPECT_EQ(records[0].params[0].first, "rounds");
  EXPECT_EQ(records[0].result.exec_time, 1234u);
  EXPECT_EQ(records[0].result.traffic_total, 99u);
  EXPECT_EQ(records[1].config_hash, 0x22u);
}

TEST(ResultsStore, ReopenSeesCompletedHashesAndAppends) {
  const std::string path = temp_store("store_reopen.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
  }
  ResultsStore store;
  ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
  EXPECT_TRUE(store.contains(0x11));
  EXPECT_EQ(store.records().size(), 1u);
  ASSERT_TRUE(store.append(sample_record(0x22), &error)) << error;

  std::vector<SweepRecord> records;
  ASSERT_TRUE(ResultsStore::load(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  // Reopening must not write a second header.
  const std::string text = read_all(path);
  EXPECT_EQ(text.find("\"kind\":\"header\""),
            text.rfind("\"kind\":\"header\""));
}

TEST(ResultsStore, TruncatedTrailingLineIsRepairedOnOpen) {
  const std::string path = temp_store("store_truncated.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x22), &error)) << error;
  }
  // Chop the file mid-way through the second record, simulating an
  // interrupted append.
  const std::string full = read_all(path);
  const std::size_t first_record_end = full.find('\n', full.find('\n') + 1);
  ASSERT_NE(first_record_end, std::string::npos);
  fs::resize_file(path, first_record_end + 1 + 20);

  ResultsStore store;
  ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
  EXPECT_TRUE(store.contains(0x11));
  EXPECT_FALSE(store.contains(0x22));  // The partial line was dropped.
  EXPECT_EQ(fs::file_size(path), first_record_end + 1);
  ASSERT_TRUE(store.append(sample_record(0x22), &error)) << error;
  EXPECT_EQ(read_all(path), full);  // Byte-identical after repair+append.
}

TEST(ResultsStore, LoadSkipsPartialTrailingLine) {
  const std::string path = temp_store("store_load_partial.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
  }
  std::ofstream(path, std::ios::binary | std::ios::app)
      << "{\"kind\":\"result\",\"hash\":\"0x22";  // No newline: partial.
  std::vector<SweepRecord> records;
  ASSERT_TRUE(ResultsStore::load(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].config_hash, 0x11u);
}

TEST(ResultsStore, RefusesCompleteMalformedMidStoreLine) {
  const std::string path = temp_store("store_corrupt.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
  }
  std::ofstream(path, std::ios::binary | std::ios::app) << "not json\n";
  ResultsStore store;
  EXPECT_FALSE(store.open(path, sample_provenance(), &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(ResultsStore, RefusesNewerSchemaAndHeaderlessFiles) {
  const std::string newer = temp_store("store_newer.jsonl");
  std::ofstream(newer, std::ios::binary)
      << "{\"kind\":\"header\",\"schema_version\":999}\n";
  ResultsStore store;
  std::string error;
  EXPECT_FALSE(store.open(newer, sample_provenance(), &error));
  EXPECT_NE(error.find("newer"), std::string::npos);

  const std::string headerless = temp_store("store_headerless.jsonl");
  std::ofstream(headerless, std::ios::binary)
      << "{\"kind\":\"result\",\"hash\":\"0x11\",\"result\":{}}\n";
  error.clear();
  EXPECT_FALSE(store.open(headerless, sample_provenance(), &error));
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(ResultsStore, CountsDuplicateHashes) {
  const std::string path = temp_store("store_dup.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
  }
  // Hand-concatenate the same record again (the runner never does this).
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    EXPECT_EQ(store.duplicate_hashes(), 0u);
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
    EXPECT_EQ(store.duplicate_hashes(), 1u);
  }
  ResultsStore reloaded;
  ASSERT_TRUE(reloaded.open(path, sample_provenance(), &error)) << error;
  EXPECT_EQ(reloaded.duplicate_hashes(), 1u);
}

TEST(ResultsStore, UnknownRecordKindsAreSkippedNotFatal) {
  const std::string path = temp_store("store_forward.jsonl");
  std::string error;
  {
    ResultsStore store;
    ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
    ASSERT_TRUE(store.append(sample_record(0x11), &error)) << error;
  }
  std::ofstream(path, std::ios::binary | std::ios::app)
      << "{\"kind\":\"future-annotation\",\"payload\":42}\n";
  ResultsStore store;
  ASSERT_TRUE(store.open(path, sample_provenance(), &error)) << error;
  EXPECT_EQ(store.records().size(), 1u);
  std::vector<SweepRecord> records;
  ASSERT_TRUE(ResultsStore::load(path, &records, &error)) << error;
  EXPECT_EQ(records.size(), 1u);
}

TEST(ResultsStore, RecordRejectsNumbersThatDoNotFitTheirField) {
  const std::pair<const char*, Json> cases[] = {
      {"l1_bytes", Json(std::uint64_t{1} << 32)},
      {"nodes", Json(std::uint64_t{5000000000})},
      {"seed", Json(1e30)},
      {"block_bytes", Json(-5.0)},
      {"l2_bytes", Json(2.5)},
  };
  for (const auto& [key, value] : cases) {
    Json json = sweep_record_to_json(sample_record(1));
    for (auto& [k, v] : json.as_object()) {
      if (k == key) v = value;
    }
    SweepRecord back;
    std::string error;
    EXPECT_FALSE(sweep_record_from_json(json, &back, &error)) << key;
    EXPECT_NE(error.find(std::string("'") + key + "'"), std::string::npos)
        << error;
  }
}

TEST(ResultsStore, RecordJsonRoundTrip) {
  const SweepRecord record = sample_record(0xabcdef0123456789ull);
  const Json json = sweep_record_to_json(record);
  SweepRecord back;
  std::string error;
  ASSERT_TRUE(sweep_record_from_json(json, &back, &error)) << error;
  EXPECT_EQ(back.config_hash, record.config_hash);
  EXPECT_EQ(back.label, record.label);
  EXPECT_EQ(back.workload, record.workload);
  EXPECT_EQ(back.params, record.params);
  EXPECT_EQ(back.seed, record.seed);
  EXPECT_EQ(back.nodes, record.nodes);
  EXPECT_EQ(back.l1_bytes, record.l1_bytes);
  EXPECT_EQ(back.block_bytes, record.block_bytes);
  EXPECT_EQ(back.result.exec_time, record.result.exec_time);
  EXPECT_EQ(back.result.traffic_total, record.result.traffic_total);
}

}  // namespace
}  // namespace lssim

// The RunResult field table (workloads/result_fields.hpp) is the one
// list of a run's values: manifest JSON in both directions and
// compare_replay iterate it. These tests hold it complete: every member
// has a row, and every row is compared, named and round-tripped alone.
#include "workloads/result_fields.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/manifest.hpp"
#include "trace/replay_compare.hpp"

namespace lssim {
namespace {

TEST(RunResultFields, EveryMemberHasARow) {
  // Fill every byte of a RunResult, then copy it row by row into a
  // default one: a member no row reaches keeps its default, and the
  // member-wise operator== sees the difference.
  static_assert(std::is_trivially_copyable_v<RunResult>);
  RunResult filled;
  std::memset(static_cast<void*>(&filled), 0x5a, sizeof filled);
  RunResult copy;
  for (const RunResultField& field : kRunResultFields) {
    field.set(copy, field.get(filled));
  }
  EXPECT_TRUE(copy == filled);
}

TEST(RunResultFields, KeysAreUnique) {
  std::set<std::string> keys;
  for (const RunResultField& field : kRunResultFields) {
    EXPECT_TRUE(keys.insert(field.key).second) << field.key;
  }
}

TEST(RunResultFields, EachRowIsComparedNamedAndRoundTrippedAlone) {
  const RunResult base;
  for (const RunResultField& field : kRunResultFields) {
    RunResult perturbed = base;
    field.set(perturbed, field.get(base) + 1);
    ASSERT_FALSE(perturbed == base) << field.key;

    const std::vector<std::string> diffs = compare_replay(base, perturbed);
    ASSERT_EQ(diffs.size(), 1u) << field.key;
    EXPECT_EQ(diffs[0].rfind(std::string(field.key) + ": executed ", 0), 0u)
        << diffs[0];

    std::string error;
    const Json json =
        Json::parse(run_result_to_json(perturbed).dump(), &error);
    ASSERT_TRUE(error.empty()) << error;
    RunResult back;
    ASSERT_TRUE(run_result_from_json(json, &back, &error))
        << field.key << ": " << error;
    // Oracle counters are compared but not part of the manifest.
    EXPECT_TRUE(back == (field.in_manifest ? perturbed : base)) << field.key;
  }
}

TEST(RunResultFields, DiffsShowNamesForNameFields) {
  RunResult ls;
  ls.protocol = ProtocolKind::kLs;
  EXPECT_EQ(compare_replay(RunResult{}, ls),
            std::vector<std::string>{
                "protocol: executed Baseline, replayed LS"});
}

}  // namespace
}  // namespace lssim

// The MachineConfig field table (sim/machine_fields.hpp) is the one list
// of a machine's fields: the manifest, the repro format, both config
// hashes and validate()'s range checks iterate it. These tests walk the
// table, so a row added there is covered without a new test.
#include "sim/machine_fields.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "check/repro.hpp"
#include "telemetry/manifest.hpp"

namespace lssim {
namespace {

TEST(MachineFields, KeysAreUniqueAndFindable) {
  std::set<std::string> keys;
  for (const MachineField& field : kMachineFields) {
    EXPECT_TRUE(keys.insert(field.key).second) << field.key;
    EXPECT_EQ(find_machine_field(field.key), &field);
    EXPECT_LE(field.lo, field.hi) << field.key;
    EXPECT_LE(field.hi, field.max) << field.key;
  }
  EXPECT_EQ(find_machine_field("telemetry"), nullptr);
}

/// `base` with `field` moved to a non-default value in its range that
/// still validates; one block size serves both cache levels.
MachineConfig moved(const MachineConfig& base, const MachineField& field) {
  const std::uint64_t d = field.get(base);
  for (const std::uint64_t v : {field.hi, field.lo, 2 * d, d + 1}) {
    if (v == d || v < field.lo || v > field.hi) continue;
    MachineConfig m = base;
    field.set(m, v);
    if (m.l1.block_bytes != m.l2.block_bytes) {
      m.l1.block_bytes = m.l2.block_bytes = static_cast<std::uint32_t>(v);
    }
    if (m.validate().empty()) return m;
  }
  ADD_FAILURE() << "no valid non-default value for " << field.key;
  return base;
}

TEST(MachineFields, EachRowSurvivesTheManifestAndARepro) {
  const MachineConfig base = MachineConfig::scientific_default();
  for (const MachineField& field : kMachineFields) {
    const MachineConfig m = moved(base, field);
    ASSERT_NE(field.get(m), field.get(base)) << field.key;

    RunManifest manifest;
    manifest.machine = m;
    std::ostringstream json;
    write_manifest(json, manifest);
    RunManifest back;
    std::string error;
    ASSERT_TRUE(manifest_from_text(json.str(), &back, &error))
        << field.key << ": " << error;
    EXPECT_TRUE(back.machine == m) << field.key << " in\n" << json.str();

    check::ReproTrace trace;
    trace.machine = m;
    std::stringstream text;
    check::save_repro(text, trace);
    EXPECT_TRUE(check::load_repro(text).machine == m)
        << field.key << " in\n" << text.str();
  }
}

TEST(MachineFields, ValidateNamesTheRowOutsideItsRange) {
  const MachineConfig base = MachineConfig::scientific_default();
  for (const MachineField& field : kMachineFields) {
    for (const bool below : {true, false}) {
      if (below ? field.lo == 0 : field.hi == field.max) continue;
      MachineConfig m = base;
      field.set(m, below ? field.lo - 1 : field.hi + 1);
      EXPECT_EQ(m.validate().rfind(std::string(field.key) + " must be in [",
                                   0),
                0u)
          << field.key << ": " << m.validate();
    }
  }
}

}  // namespace
}  // namespace lssim

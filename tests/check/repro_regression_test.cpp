// Checked-in repro traces (tests/check/repros/*.repro) replayed under
// the invariant checker, plus round-trip coverage of the text format.
// Each repro pins a protocol corner the verification subsystem once had
// to reason about carefully; they must stay green under the real
// policies, and the foreign-read repro must keep tripping the checker
// under the deliberately broken skip-de-tag policy — proving the trace
// still exercises the rule it was written for.
#include "check/repro.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "check/trace_runner.hpp"

namespace lssim::check {
namespace {

constexpr CheckerOptions kStrict{.full_scan_interval = 1};

std::string repro_path(const char* name) {
  return std::string(LSSIM_REPRO_DIR) + "/" + name;
}

TEST(ReproRegression, DetagOnForeignReadBeforeOwningWrite) {
  const ReproTrace trace =
      load_repro_file(repro_path("detag-on-foreign-read.repro"));
  ASSERT_EQ(trace.accesses.size(), 4u);
  EXPECT_EQ(trace.machine.protocol.kind, ProtocolKind::kLs);
  const TraceRunResult run = run_trace(trace, {}, kStrict);
  EXPECT_TRUE(run.ok()) << run.violations.front().message();

  // The trace is load-bearing: the policy that forgets the §3.1 de-tag
  // rule must fail it, on the foreign read itself.
  const TraceRunResult broken =
      run_trace(trace, skip_detag_policy_factory(), kStrict);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.violations.front().invariant, "ls-tag");
  EXPECT_EQ(broken.violations.front().access_index, 4u);
}

TEST(ReproRegression, NotLsRaceWithReplacementAndForeignWrite) {
  const ReproTrace trace = load_repro_file(repro_path("notls-race.repro"));
  ASSERT_EQ(trace.accesses.size(), 6u);
  EXPECT_EQ(trace.machine.num_nodes, 3);
  const TraceRunResult run = run_trace(trace, {}, kStrict);
  EXPECT_TRUE(run.ok()) << run.violations.front().message();
}

TEST(ReproRegression, LsAdFallbackAtUpgrade) {
  const ReproTrace trace =
      load_repro_file(repro_path("lsad-upgrade-fallback.repro"));
  ASSERT_EQ(trace.machine.protocol.kind, ProtocolKind::kLsAd);
  const TraceRunResult run = run_trace(trace, {}, kStrict);
  EXPECT_TRUE(run.ok()) << run.violations.front().message();
}

TEST(ReproRegression, DragonUpdatePropagationOverImpreciseDirectory) {
  const ReproTrace trace =
      load_repro_file(repro_path("dragon-update-propagation.repro"));
  ASSERT_EQ(trace.accesses.size(), 4u);
  EXPECT_EQ(trace.machine.protocol.kind, ProtocolKind::kLsDragon);
  EXPECT_EQ(trace.machine.directory_scheme, DirectoryKind::kLimitedPtr);
  EXPECT_EQ(trace.machine.interconnect, InterconnectKind::kNetwork);
  const TraceRunResult run = run_trace(trace, {}, kStrict);
  EXPECT_TRUE(run.ok()) << run.violations.front().message();

  // The trace is load-bearing: re-injecting the historical bug (the
  // write-update fan-out trusting the believed sharer set instead of
  // probing each target cache) must trip the directory/cache agreement
  // sweep on the final write, which re-records the silently-evicted
  // node 0 as a sharer of the precise Owned entry.
  ReproTrace injected = trace;
  injected.machine.protocol.trust_update_sharers = true;
  const TraceRunResult broken = run_trace(injected, {}, kStrict);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.violations.front().invariant, "dir-cache-agreement");
  EXPECT_EQ(broken.violations.front().access_index, 4u);

  // Same stimulus, same injected bug, snooping transport: the invariant
  // is transport-independent and must fire on the bus too.
  injected.machine.interconnect = InterconnectKind::kBus;
  const TraceRunResult bus_broken = run_trace(injected, {}, kStrict);
  ASSERT_FALSE(bus_broken.ok());
  EXPECT_EQ(bus_broken.violations.front().invariant, "dir-cache-agreement");
}

TEST(ReproFormat, SaveLoadRoundTripsExactly) {
  ReproTrace trace;
  trace.machine = tiny_machine(4, ProtocolKind::kLsAd);
  trace.machine.protocol.default_tagged = true;
  trace.machine.protocol.tag_hysteresis = 2;
  trace.machine.protocol.keep_tag_on_lone_write = true;
  trace.machine.directory_scheme = DirectoryKind::kLimitedPtr;
  trace.machine.directory_pointers = 2;
  trace.machine.directory_region = 3;
  trace.machine.directory_entries = 7;
  trace.machine.interconnect = InterconnectKind::kBus;
  trace.machine.bus_arbitration = BusArbitration::kRoundRobin;
  trace.accesses = {
      {0, MemOpKind::kRead, 0x0, 8, 0, 0},
      {3, MemOpKind::kWrite, 0x40, 8, 0xdeadbeef, 0},
      {1, MemOpKind::kCas, 0x48, 8, 0x1, 0x2},
      {2, MemOpKind::kFetchAdd, 0x0, 4, 0x10, 0},
  };

  std::stringstream ss;
  save_repro(ss, trace);
  const ReproTrace loaded = load_repro(ss);

  EXPECT_TRUE(loaded.machine == trace.machine) << ss.str();
  EXPECT_EQ(loaded.accesses, trace.accesses);
}

// The four checked-in repros are version 1 and stay so. Each must load
// to the machine and accesses it loaded to before the v2 format, and
// survive a save in v2.
TEST(ReproFormat, CheckedInVersion1ReprosLoadAsBefore) {
  struct Expected {
    const char* file;
    MachineConfig machine;
    std::vector<std::string> accesses;
  };
  const auto machine = [](ProtocolKind kind, int nodes) {
    MachineConfig m;
    m.protocol.kind = kind;
    m.num_nodes = nodes;
    m.l1 = CacheConfig{32, 1, 16};
    m.l2 = CacheConfig{64, 1, 16};
    return m;
  };
  MachineConfig dragon = machine(ProtocolKind::kLsDragon, 2);
  dragon.protocol.tag_hysteresis = 2;
  dragon.directory_scheme = DirectoryKind::kLimitedPtr;
  dragon.directory_pointers = 1;
  const Expected expected[] = {
      {"detag-on-foreign-read.repro",
       machine(ProtocolKind::kLs, 2),
       {"access 0 R 0x0 8 0x0", "access 0 W 0x0 8 0xa1",
        "access 1 R 0x0 8 0x0", "access 0 R 0x0 8 0x0"}},
      {"dragon-update-propagation.repro",
       dragon,
       {"access 0 R 0x80 8 0x0", "access 1 R 0x88 8 0x0",
        "access 0 R 0xc8 8 0x0", "access 1 W 0x88 8 0xd1"}},
      {"lsad-upgrade-fallback.repro",
       machine(ProtocolKind::kLsAd, 2),
       {"access 0 W 0x0 8 0xd4", "access 1 R 0x0 8 0x0",
        "access 1 W 0x0 8 0xe5", "access 0 R 0x0 8 0x0",
        "access 0 W 0x8 8 0xf6", "access 1 R 0x0 8 0x0"}},
      {"notls-race.repro",
       machine(ProtocolKind::kLs, 3),
       {"access 0 R 0x0 8 0x0", "access 0 W 0x0 8 0xb2",
        "access 1 R 0x0 8 0x0", "access 1 R 0x40 8 0x0",
        "access 2 W 0x0 8 0xc3", "access 1 R 0x0 8 0x0"}},
  };
  for (const Expected& e : expected) {
    const ReproTrace trace = load_repro_file(repro_path(e.file));
    EXPECT_TRUE(trace.machine == e.machine) << e.file;
    std::vector<std::string> accesses;
    for (const ReproAccess& access : trace.accesses) {
      accesses.push_back(to_string(access));
    }
    EXPECT_EQ(accesses, e.accesses) << e.file;

    std::stringstream v2;
    save_repro(v2, trace);
    EXPECT_EQ(v2.str().rfind("lssim-repro v2\n", 0), 0u);
    const ReproTrace again = load_repro(v2);
    EXPECT_TRUE(again.machine == trace.machine) << e.file;
    EXPECT_EQ(again.accesses, trace.accesses) << e.file;
  }
}

TEST(ReproFormat, MalformedInputsFailWithLineNumbers) {
  const auto load_text = [](const char* text) {
    std::stringstream ss(text);
    return load_repro(ss);
  };
  EXPECT_THROW((void)load_text("not a repro\n"), std::runtime_error);
  EXPECT_THROW((void)load_text("lssim-repro v1\n"), std::runtime_error);
  EXPECT_THROW(
      (void)load_text("lssim-repro v1\nprotocol Bogus\nend\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)load_text("lssim-repro v1\naccess 0 R zzz\nend\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)load_text("lssim-repro v1\naccess 0 R 0x0 3 0x0\nend\n"),
      std::runtime_error);
}

/// The error load_repro raises for detag-on-foreign-read.repro with the
/// line starting `key ` replaced by `replacement` (appended if absent).
std::string load_error_with(const std::string& key,
                            const std::string& replacement) {
  std::ifstream in(repro_path("detag-on-foreign-read.repro"));
  std::string text;
  bool replaced = false;
  for (std::string line; std::getline(in, line);) {
    if (!replaced && line.rfind(key + " ", 0) == 0) {
      line = replacement;
      replaced = true;
    } else if (line == "end" && !replaced) {
      text += replacement + "\n";
    }
    text += line + "\n";
  }
  std::stringstream ss(text);
  try {
    (void)load_repro(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ReproFormat, RejectsZeroCacheGeometry) {
  // Once a SIGFPE in the cache's set-index arithmetic. The machine is
  // validated whole, at the `end` line.
  const std::string error = load_error_with("l1", "l1 0 0 0");
  EXPECT_NE(error.find("line 21"), std::string::npos) << error;
  EXPECT_NE(error.find("cache geometry"), std::string::npos) << error;
}

TEST(ReproFormat, RejectsAccessNodeBeyondMachine) {
  // Once a SIGSEGV: node 5 indexed a 2-node machine's caches.
  const std::string error = load_error_with("access", "access 5 R 0x0 8 0x0");
  EXPECT_NE(error.find("line 17"), std::string::npos) << error;
  EXPECT_NE(error.find("access node 5"), std::string::npos) << error;
}

TEST(ReproFormat, RejectsMisalignedAccess) {
  // 0xffc + 8 crosses a page: replay once wrote past the page buffer.
  const std::string error =
      load_error_with("access", "access 0 W 0xffc 8 0xa1");
  EXPECT_NE(error.find("line 17"), std::string::npos) << error;
  EXPECT_NE(error.find("access address 0xffc"), std::string::npos) << error;
  // Aligned for a narrower access, misaligned for a wider one.
  EXPECT_EQ(load_error_with("access", "access 0 W 0x4 4 0xa1"), "");
  EXPECT_NE(load_error_with("access", "access 0 W 0x4 8 0xa1"), "");
}

TEST(ReproFormat, RejectsOutOfRangePointerCount) {
  // 300 used to narrow to 44 and then run a 44-pointer Dir_iB.
  const std::string error =
      load_error_with("directory", "directory limited-ptr 300");
  EXPECT_NE(error.find("line 16"), std::string::npos) << error;
  EXPECT_NE(error.find("directory pointers 300"), std::string::npos)
      << error;
  // In range for the field, out of range for the organisation.
  const std::string invalid =
      load_error_with("directory", "directory limited-ptr 9");
  EXPECT_NE(invalid.find("directory_pointers"), std::string::npos)
      << invalid;
}

TEST(ReproFormat, RejectsTrailingTokens) {
  const std::string error = load_error_with("protocol", "protocol LS garbage");
  EXPECT_NE(error.find("line 7"), std::string::npos) << error;
  EXPECT_NE(error.find("'garbage' after protocol"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace lssim::check

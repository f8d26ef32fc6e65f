// Cross-organization equivalence: the directory organisation changes
// *cost* (invalidation fan-out, entry evictions), never *meaning*.
// Randomized traces replayed under all four organisations and all five
// protocols must stay invariant-clean, and because the checker's
// data-value invariant compares every loaded value against one
// organisation-independent sequentially-consistent reference memory,
// trailing reads of every touched location prove the final memory
// values are identical across organisations too. Over whole live runs,
// the three parameterisations of the bit-vector encoding that are exact
// (full-map, coarse with one-node regions, sparse with room for every
// block) must give the same RunResult.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/trace_runner.hpp"
#include "core/protocol_registry.hpp"
#include "machine/system.hpp"
#include "sim/rng.hpp"
#include "trace/replay_compare.hpp"
#include "workloads/harness.hpp"
#include "workloads/mp3d.hpp"
#include "workloads/oltp.hpp"

namespace lssim::check {
namespace {

// One organisation variant as applied to a trace's machine config. The
// knobs are deliberately hostile on a tiny machine: 2 pointers overflow
// as soon as a third sharer appears, 2-node regions make every sharer
// record imprecise, and 3 entries force constant eviction churn.
struct OrgVariant {
  const char* label;
  DirectoryKind kind;
  std::uint8_t pointers = 4;
  std::uint16_t region = 0;
  std::uint32_t entries = 0;
};

constexpr OrgVariant kOrgs[] = {
    {"full-map", DirectoryKind::kFullMap},
    {"limited-ptr(2)", DirectoryKind::kLimitedPtr, 2},
    {"coarse(region=2)", DirectoryKind::kCoarseVector, 4, 2},
    {"sparse(entries=3)", DirectoryKind::kSparse, 4, 0, 3},
};

void apply(const OrgVariant& org, MachineConfig* machine) {
  machine->directory_scheme = org.kind;
  machine->directory_pointers = org.pointers;
  machine->directory_region = org.region;
  machine->directory_entries = org.entries;
}

/// A random trace over `blocks` contended locations, closed by a read
/// of every touched address so the data-value invariant pins the final
/// memory state.
ReproTrace random_trace(std::uint64_t seed, int nodes, int blocks,
                        int length, ProtocolKind kind) {
  Rng rng(seed);
  ReproTrace trace;
  trace.machine = tiny_machine(nodes, kind);
  std::vector<Addr> addrs;
  for (int b = 0; b < blocks; ++b) {
    // Two 8-byte words per block so false sharing happens too.
    addrs.push_back(verification_block(trace.machine, b));
    addrs.push_back(verification_block(trace.machine, b) + 8);
  }
  for (int i = 0; i < length; ++i) {
    ReproAccess a;
    a.node = static_cast<NodeId>(rng.next_below(nodes));
    a.addr = addrs[rng.next_below(addrs.size())];
    a.size = 8;
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        a.op = MemOpKind::kRead;
        break;
      case 3:
      case 4:
        a.op = MemOpKind::kWrite;
        a.wdata = rng.next();
        break;
      case 5:
        a.op = MemOpKind::kFetchAdd;
        a.wdata = 1;
        break;
      case 6:
        a.op = MemOpKind::kSwap;
        a.wdata = rng.next();
        break;
      default:
        a.op = MemOpKind::kCas;
        a.expected = rng.next_below(4);
        a.wdata = rng.next();
        break;
    }
    trace.accesses.push_back(a);
  }
  // Closing reads, spread across nodes: every location's final value is
  // checked against the reference memory on every replay.
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    ReproAccess a;
    a.op = MemOpKind::kRead;
    a.node = static_cast<NodeId>(i % nodes);
    a.addr = addrs[i];
    a.size = 8;
    trace.accesses.push_back(a);
  }
  return trace;
}

std::string violation_digest(const TraceRunResult& result) {
  std::string out;
  for (const Violation& v : result.violations) {
    out += v.message() + "\n";
  }
  return out;
}

TEST(DirectoryEquivalence, AllOrganizationsAllProtocolsInvariantClean) {
  for (ProtocolKind kind : all_protocol_kinds()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ReproTrace trace = random_trace(seed, /*nodes=*/4, /*blocks=*/5,
                                      /*length=*/300, kind);
      for (const OrgVariant& org : kOrgs) {
        apply(org, &trace.machine);
        const TraceRunResult result = run_trace(trace);
        EXPECT_TRUE(result.ok())
            << to_string(kind) << " under " << org.label << " seed "
            << seed << ":\n"
            << violation_digest(result);
        EXPECT_EQ(result.accesses, trace.accesses.size());
      }
    }
  }
}

TEST(DirectoryEquivalence, SingleNodePointerStormSurvivesOverflowReclaim) {
  // Directed at the Dir_iB corner the fuzzer found hardest: a block that
  // overflows, loses every real copy through replacements, then gets
  // re-written — the stale imprecise entry must not confuse any
  // protocol. High write share makes clear_sharers/overflow alternate.
  for (ProtocolKind kind : all_protocol_kinds()) {
    ReproTrace trace = random_trace(99, /*nodes=*/4, /*blocks=*/2,
                                    /*length=*/200, kind);
    apply(kOrgs[1], &trace.machine);  // limited-ptr, 2 pointers.
    trace.machine.directory_pointers = 1;
    const TraceRunResult result = run_trace(trace);
    EXPECT_TRUE(result.ok())
        << to_string(kind) << ":\n" << violation_digest(result);
  }
}

// The road past 64 nodes: a 128-node machine (beyond any full-map
// bitmap) must run end-to-end, invariant-checked, under both scalable
// organisations. This is the tier-1 stand-in for the bench-level
// sweep_directory_nodes run.
TEST(DirectoryEquivalence, OneHundredTwentyEightNodeSmoke) {
  const OrgVariant big_orgs[] = {
      {"limited-ptr(4)", DirectoryKind::kLimitedPtr, 4},
      {"coarse(auto)", DirectoryKind::kCoarseVector, 4, 0},
  };
  for (const OrgVariant& org : big_orgs) {
    ReproTrace trace = random_trace(7, /*nodes=*/128, /*blocks=*/6,
                                    /*length=*/600, ProtocolKind::kLsAd);
    apply(org, &trace.machine);
    ASSERT_EQ(trace.machine.validate(), "");
    const TraceRunResult result = run_trace(trace);
    EXPECT_TRUE(result.ok())
        << org.label << ":\n" << violation_digest(result);
    EXPECT_EQ(result.accesses, trace.accesses.size());
  }
}

TEST(DirectoryEquivalence, FullMapRefusesMachinesPast64Nodes) {
  MachineConfig machine = tiny_machine(128, ProtocolKind::kBaseline);
  machine.directory_scheme = DirectoryKind::kFullMap;
  const std::string error = machine.validate();
  EXPECT_NE(error.find("full-map"), std::string::npos) << error;
}

// Full-map is the bit vector with one-node regions and no entry bound,
// so coarse with --dir-region 1 and sparse with a bound above the run's
// block footprint (auto regions are one node wide up to 64 nodes) must
// reproduce a whole live run exactly: every RunResult field except the
// organisation's own name.
TEST(DirectoryEquivalence, ExactBitVectorOrganisationsAgreeOverWholeRuns) {
  struct Workload {
    const char* name;
    MachineConfig (*machine)(ProtocolKind, int);
    WorkloadBuilder build;
  };
  const Workload workloads[] = {
      {"mp3d", &MachineConfig::scientific_default,
       [](System& sys) {
         build_mp3d(sys, Mp3dParams{.particles = 2000, .steps = 3});
       }},
      {"oltp", &MachineConfig::oltp_default,
       [](System& sys) {
         build_oltp(sys, OltpParams{.txns_per_proc = 100});
       }},
  };
  for (const Workload& w : workloads) {
    for (const int nodes : {4, 16}) {
      for (const ProtocolKind kind : all_protocol_kinds()) {
        const std::string label = std::string(w.name) + " " +
                                  std::to_string(nodes) + " nodes " +
                                  to_string(kind);
        MachineConfig machine = w.machine(kind, nodes);
        machine.directory_scheme = DirectoryKind::kFullMap;
        std::size_t footprint = 0;
        const RunResult full_map =
            run_experiment(machine, w.build, 1, [&](System& sys) {
              footprint = sys.memory().directory().size();
            });
        ASSERT_GT(footprint, 0u) << label;

        MachineConfig coarse = machine;
        coarse.directory_scheme = DirectoryKind::kCoarseVector;
        coarse.directory_region = 1;
        MachineConfig sparse = machine;
        sparse.directory_scheme = DirectoryKind::kSparse;
        sparse.directory_entries = static_cast<std::uint32_t>(footprint + 1);
        for (const MachineConfig& other : {coarse, sparse}) {
          ASSERT_EQ(other.validate(), "") << label;
          RunResult result = run_experiment(other, w.build, 1);
          EXPECT_EQ(result.directory, other.directory_scheme) << label;
          EXPECT_EQ(result.dir_entry_evictions, 0u) << label;
          result.directory = full_map.directory;
          const std::vector<std::string> diffs =
              compare_replay(full_map, result);
          EXPECT_TRUE(diffs.empty())
              << label << " under "
              << kDirectoryNames.name(other.directory_scheme) << ": "
              << diffs.front();
        }
      }
    }
  }
}

}  // namespace
}  // namespace lssim::check

// Table 2 extension: the three-way ownership split across the
// MESI/MOESI/Dragon protocol family — the experiment the paper never
// ran. Every write that needs the block made coherent resolves one of
// three ways:
//   acquired   — paid a global ownership acquisition (invalidations),
//   eliminated — completed locally on an exclusive copy a tagged read
//                had already fetched (the paper's LS payoff),
//   updated    — resolved as a write-update transaction (Dragon keeps
//                the remote copies alive instead of invalidating).
// The split is reported for the OLTP workload (Table 2's subject) under
// both coherence transports: the paper's point-to-point directory
// network and the snooping shared bus. The split is a protocol
// property: the transport changes timing (exec column) and therefore —
// OLTP's control flow reacts to timing — the absolute counts a little,
// but the split fractions stay put.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace lssim;

constexpr ProtocolKind kFamily[] = {
    ProtocolKind::kBaseline, ProtocolKind::kLs,      ProtocolKind::kMesi,
    ProtocolKind::kMoesi,    ProtocolKind::kDragon,  ProtocolKind::kLsMesi,
    ProtocolKind::kLsDragon,
};

void print_split(const std::vector<RunResult>& results) {
  std::printf("  %-10s %9s %18s %18s %18s %7s\n", "protocol", "writes",
              "acquired", "eliminated", "updated", "exec");
  const RunResult& base = results.front();
  for (const RunResult& r : results) {
    const std::uint64_t total = r.ownership_acquisitions +
                                r.eliminated_acquisitions +
                                r.update_transactions;
    const auto share = [total](std::uint64_t n) {
      return total == 0 ? 0.0
                        : 100.0 * static_cast<double>(n) /
                              static_cast<double>(total);
    };
    std::printf(
        "  %-10s %9llu %10llu (%4.1f%%) %10llu (%4.1f%%) %10llu (%4.1f%%) "
        "%7.1f\n",
        to_string(r.protocol),
        static_cast<unsigned long long>(r.global_write_actions),
        static_cast<unsigned long long>(r.ownership_acquisitions),
        share(r.ownership_acquisitions),
        static_cast<unsigned long long>(r.eliminated_acquisitions),
        share(r.eliminated_acquisitions),
        static_cast<unsigned long long>(r.update_transactions),
        share(r.update_transactions),
        normalized(r.exec_time, base.exec_time));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lssim;
  const int jobs = bench::parse_jobs(argc, argv);

  OltpParams params;
  const auto build = [&](System& sys) { build_oltp(sys, params); };

  std::printf("== Table 2 extension: ownership split, MESI/MOESI/Dragon "
              "family (OLTP) ==\n");
  std::printf("share columns: of all ownership events "
              "(acquired + eliminated + updated); exec: Baseline = 100 "
              "per transport\n");
  for (const InterconnectKind net :
       {InterconnectKind::kNetwork, InterconnectKind::kBus}) {
    MachineConfig cfg = bench::oltp_bench_config();
    cfg.interconnect = net;
    std::printf("\n-- %s --\n", to_string(net));
    print_split(run_experiments(cfg, build, kFamily, /*seed=*/1, jobs));
  }
  std::printf(
      "\nthe split fractions are transport-invariant (counts drift with "
      "timing feedback); LS tagging moves Dragon's updated share into "
      "eliminated local writes\n");
  return 0;
}

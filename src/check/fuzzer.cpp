#include "check/fuzzer.hpp"

#include <algorithm>
#include <utility>

#include "core/protocol_registry.hpp"
#include "core/tag_rules.hpp"
#include "exec/heartbeat.hpp"
#include "sim/rng.hpp"

namespace lssim::check {
namespace {

/// LS with the §3.1 foreign-access de-tag rule "forgotten": a block
/// stays tagged after a foreign read hits its LStemp owner, so later
/// reads keep being granted exclusive copies of a block that is
/// demonstrably not in a load-store sequence any more. The invariant
/// checker's LS tag model flags the first such access.
class SkipDetagLsPolicy final : public TagRulePolicy {
 public:
  explicit SkipDetagLsPolicy(const ProtocolConfig& config)
      : TagRulePolicy(ProtocolKind::kLs, config, /*ls=*/true, /*ad=*/false) {}

  [[nodiscard]] TagAction on_foreign_access(
      const DirEntry& entry) const override {
    (void)entry;
    return TagAction::kNone;  // The injected bug.
  }
};

ReproTrace random_trace(Rng& rng, const FuzzOptions& options,
                        const std::vector<ProtocolKind>& kinds) {
  ReproTrace trace;
  const ProtocolKind kind = kinds[rng.next_below(kinds.size())];
  const int nodes = static_cast<int>(rng.next_range(2, 4));
  trace.machine = tiny_machine(nodes, kind);

  if (options.randomize_knobs) {
    ProtocolConfig& p = trace.machine.protocol;
    p.default_tagged = rng.next_bool(0.25);
    p.tag_hysteresis = rng.next_bool(0.25) ? 2 : 1;
    p.detag_hysteresis = rng.next_bool(0.25) ? 2 : 1;
    p.keep_tag_on_lone_write = rng.next_bool(0.25);
    p.ad_detag_on_replacement = !rng.next_bool(0.25);
    // Sample a directory organisation: full-map half the time, an
    // alternative otherwise — tight knobs (1-2 pointers, 2-node regions,
    // 1-3 entries) so overflow, imprecision and evictions all happen
    // within a short trace.
    const std::uint64_t dir_roll = rng.next_below(8);
    if (dir_roll < 2) {
      trace.machine.directory_scheme = DirectoryKind::kLimitedPtr;
      trace.machine.directory_pointers =
          static_cast<std::uint8_t>(rng.next_range(1, 2));
    } else if (dir_roll < 3) {
      trace.machine.directory_scheme = DirectoryKind::kCoarseVector;
      trace.machine.directory_region =
          static_cast<std::uint16_t>(rng.next_range(1, 2));
    } else if (dir_roll < 4) {
      trace.machine.directory_scheme = DirectoryKind::kSparse;
      trace.machine.directory_entries =
          static_cast<std::uint32_t>(rng.next_range(1, 3));
    }
    // Sample the transport too: the snooping bus serialises the same
    // transactions through an arbiter, so every structural invariant
    // must hold identically there. Timing differs but the checker's
    // models are timing-independent.
    const std::uint64_t net_roll = rng.next_below(8);
    if (net_roll < 2) {
      trace.machine.interconnect = InterconnectKind::kBus;
      trace.machine.bus_arbitration = (net_roll == 0)
                                          ? BusArbitration::kFcfs
                                          : BusArbitration::kRoundRobin;
    }
  }

  const int num_blocks = static_cast<int>(rng.next_range(1, 4));
  for (int i = 0; i < options.trace_length; ++i) {
    ReproAccess access;
    access.node = static_cast<NodeId>(rng.next_below(nodes));
    const Addr block = verification_block(
        trace.machine, static_cast<int>(rng.next_below(num_blocks)));
    access.addr = block + rng.next_below(2) * 8;
    access.size = 8;
    access.wdata = rng.next();
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 45) {
      access.op = MemOpKind::kRead;
    } else if (roll < 80) {
      access.op = MemOpKind::kWrite;
    } else if (roll < 87) {
      access.op = MemOpKind::kSwap;
    } else if (roll < 94) {
      access.op = MemOpKind::kFetchAdd;
    } else {
      access.op = MemOpKind::kCas;
      access.expected = rng.next_bool(0.5) ? 0 : rng.next();
    }
    trace.accesses.push_back(access);
  }
  return trace;
}

}  // namespace

PolicyFactory skip_detag_policy_factory() {
  return [](const MachineConfig& config) -> std::unique_ptr<CoherencePolicy> {
    return std::make_unique<SkipDetagLsPolicy>(config.protocol);
  };
}

ReproTrace shrink_repro(const ReproTrace& trace, const PolicyFactory& policy,
                        const CheckerOptions& options) {
  const auto fails = [&](const std::vector<ReproAccess>& accesses) {
    ReproTrace candidate;
    candidate.machine = trace.machine;
    candidate.accesses = accesses;
    return !run_trace(candidate, policy, options).ok();
  };

  std::vector<ReproAccess> current = trace.accesses;
  if (current.empty() || !fails(current)) {
    return trace;
  }

  // ddmin (Zeller/Hildebrandt): try dropping ever-finer chunks until no
  // single access can be removed.
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    const std::size_t chunk =
        (current.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < current.size(); start += chunk) {
      std::vector<ReproAccess> candidate;
      candidate.reserve(current.size());
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<std::ptrdiff_t>(start));
      const std::size_t stop = std::min(start + chunk, current.size());
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<std::ptrdiff_t>(stop),
                       current.end());
      if (!candidate.empty() && fails(candidate)) {
        current = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) {
        break;  // 1-minimal.
      }
      granularity = std::min(current.size(), granularity * 2);
    }
  }

  ReproTrace shrunk;
  shrunk.machine = trace.machine;
  shrunk.accesses = std::move(current);
  return shrunk;
}

FuzzResult run_fuzzer(const FuzzOptions& options, const PolicyFactory& policy) {
  FuzzResult result;
  std::vector<ProtocolKind> kinds = options.protocols;
  if (kinds.empty()) {
    kinds = all_protocol_kinds();
  }

  Rng rng(options.seed);
  for (int i = 0; i < options.iterations; ++i) {
    ReproTrace trace;
    {
      const PhaseTimer timer(options.heartbeat, "generate");
      trace = random_trace(rng, options, kinds);
    }
    result.traces += 1;
    // Protocols to check this stimulus under: the sampled one, or — with
    // compare_protocols — the whole registry, replaying the same
    // generated access stream per kind (capture once, replay many: the
    // stream is protocol-independent by construction, so one generation
    // feeds the full sweep).
    std::vector<ProtocolKind> sweep{trace.machine.protocol.kind};
    if (options.compare_protocols) {
      sweep = kinds;
    }
    bool failed = false;
    std::uint64_t trace_accesses = 0;
    for (ProtocolKind kind : sweep) {
      trace.machine.protocol.kind = kind;
      TraceRunResult run;
      {
        const PhaseTimer timer(options.heartbeat, "check");
        run = run_trace(trace, policy, options.checker);
      }
      result.replays += 1;
      result.accesses += run.accesses;
      trace_accesses += run.accesses;
      if (run.ok()) {
        continue;
      }
      failed = true;
      if (result.failures.size() < options.max_failures) {
        const PhaseTimer timer(options.heartbeat, "shrink");
        ReproTrace repro = trace;
        if (!run.violations.empty()) {
          // Everything after the first violating access is noise.
          repro.accesses.resize(
              static_cast<std::size_t>(run.violations.front().access_index));
        }
        if (options.shrink) {
          repro = shrink_repro(repro, policy, options.checker);
        }
        const TraceRunResult rerun =
            run_trace(repro, policy, options.checker);
        result.messages.push_back(rerun.violations.empty()
                                      ? run.violations.front().message()
                                      : rerun.violations.front().message());
        result.failures.push_back(std::move(repro));
      }
    }
    if (options.heartbeat != nullptr) {
      options.heartbeat->unit_done(trace_accesses);
    }
    if (failed) {
      result.failing_traces += 1;
    }
  }
  return result;
}

}  // namespace lssim::check

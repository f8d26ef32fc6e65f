// Example: a step-by-step walkthrough of the LS protocol's state machine
// (paper Figure 1), driving the memory system one access at a time and
// printing the directory/cache state after each step.
#include <cstdio>
#include <sstream>

#include "lssim.hpp"

namespace {

using namespace lssim;

void show(MemorySystem& ms, Addr block, const char* action) {
  const DirEntry& e = ms.directory().entry(block);
  std::printf("%-44s home=%-10s tagged=%d LR=%-3d owner=%-3d caches:",
              action, to_string(e.state), e.tagged ? 1 : 0,
              e.last_reader == kInvalidNode ? -1 : e.last_reader,
              e.owner == kInvalidNode ? -1 : e.owner);
  for (NodeId n = 0; n < 4; ++n) {
    const ProbeResult p = ms.cache(n).probe(block);
    if (p.l2_hit) {
      std::printf(" P%d=%s", n, to_string(p.state));
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace lssim;

  MachineConfig cfg = MachineConfig::scientific_default(ProtocolKind::kLs);
  cfg.telemetry.event_log_capacity = 64;  // Keep the protocol event trail.
  AddressSpace space(cfg.num_nodes, cfg.page_bytes);
  Stats stats(cfg.num_nodes);
  Telemetry telemetry(cfg.telemetry);
  MemorySystem ms(cfg, space, stats, &telemetry);

  const Addr a = 0;  // Home node 0.
  Cycles now = 0;
  auto access = [&](NodeId n, MemOpKind op, const char* what) {
    AccessRequest req;
    req.op = op;
    req.addr = a;
    req.size = 4;
    req.wdata = 1;
    now += 10000;
    (void)ms.access(n, req, now);
    show(ms, a, what);
  };

  std::printf("LS protocol walkthrough (paper Figure 1)\n\n");
  show(ms, a, "initial");
  access(1, MemOpKind::kRead, "P1 reads (Uncached, LS=0 -> Shared)");
  access(1, MemOpKind::kWrite, "P1 writes (by LR -> Dirty, tag LS)");
  access(2, MemOpKind::kRead, "P2 reads (LS=1 -> exclusive, LStemp)");
  access(2, MemOpKind::kWrite, "P2 writes (local! LStemp -> Modified)");
  access(3, MemOpKind::kRead, "P3 reads (migrate exclusively again)");
  access(0, MemOpKind::kRead, "P0 reads before P3 writes (NotLS, de-tag)");
  access(0, MemOpKind::kWrite, "P0 writes (upgrade; by LR -> re-tag)");

  std::printf("\nownership acquisitions: %llu, eliminated: %llu, NotLS: %llu\n",
              static_cast<unsigned long long>(stats.ownership_acquisitions),
              static_cast<unsigned long long>(stats.eliminated_acquisitions),
              static_cast<unsigned long long>(stats.notls_messages));

  std::printf("\nprotocol event log:\n");
  std::ostringstream log_text;
  telemetry.event_log().dump(log_text);
  std::fputs(log_text.str().c_str(), stdout);
  return 0;
}

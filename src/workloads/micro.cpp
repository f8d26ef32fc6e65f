#include "workloads/micro.hpp"

#include <memory>

#include "mem/shared_heap.hpp"
#include "sync/barrier.hpp"

namespace lssim {
namespace {

struct MicroContext {
  SharedArray<std::uint64_t> data;
  Addr turn = 0;
  std::unique_ptr<Barrier> barrier;
};

SimTask<void> pingpong_program(System& sys,
                               std::shared_ptr<MicroContext> ctx,
                               NodeId id, PingPongParams p) {
  Processor& proc = sys.proc(id);
  const int nprocs = sys.num_procs();
  if (p.sync) co_await ctx->barrier->wait(proc);
  for (int r = 0; r < p.rounds; ++r) {
    // Wait for this processor's turn (strict round-robin): serialized
    // turns make the counter updates genuinely migratory.
    const std::uint64_t my_turn =
        static_cast<std::uint64_t>(r) * nprocs + id;
    co_await proc.spin_until(ctx->turn, my_turn, 8, 15, 8);
    for (int c = 0; c < p.counters; ++c) {
      // Read-modify-write: a global read followed by a write from the
      // same processor — a load-store sequence; with processors taking
      // strict turns the data migrates.
      const Addr addr = ctx->data.addr(static_cast<std::uint64_t>(c) * 2);
      const std::uint64_t v = co_await proc.read(addr, 8);
      co_await proc.write(addr, v + 1, 8);
    }
    proc.compute(p.think_cycles);
    co_await proc.write(ctx->turn, my_turn + 1, 8);
  }
}

SimTask<void> private_rmw_program(System& sys,
                                  std::shared_ptr<MicroContext> ctx,
                                  NodeId id, PrivateRmwParams p) {
  Processor& proc = sys.proc(id);
  const std::uint64_t base = id * p.words_per_proc;
  if (p.sync) co_await ctx->barrier->wait(proc);
  for (int sweep = 0; sweep < p.sweeps; ++sweep) {
    for (std::uint64_t w = 0; w < p.words_per_proc; ++w) {
      const Addr addr = ctx->data.addr(base + w);
      const std::uint64_t v = co_await proc.read(addr, 8);
      proc.compute(p.compute);
      co_await proc.write(addr, v + 1, 8);
    }
  }
}

SimTask<void> read_mostly_program(System& sys,
                                  std::shared_ptr<MicroContext> ctx,
                                  NodeId id, ReadMostlyParams p) {
  Processor& proc = sys.proc(id);
  if (p.sync) co_await ctx->barrier->wait(proc);
  for (int r = 0; r < p.rounds; ++r) {
    if (id == 0) {
      for (int w = 0; w < p.writes_per_round; ++w) {
        const Addr addr = ctx->data.addr(
            (static_cast<std::uint64_t>(r) * 37 + w * 101) % p.words);
        const std::uint64_t v = co_await proc.read(addr, 8);
        co_await proc.write(addr, v + 1, 8);
      }
    }
    std::uint64_t sum = 0;
    for (std::uint64_t w = 0; w < p.words; w += 8) {
      sum += co_await proc.read(ctx->data.addr(w), 8);
    }
    (void)sum;
    proc.compute(p.compute);
  }
}

}  // namespace

void build_pingpong(System& sys, const PingPongParams& params) {
  auto ctx = std::make_shared<MicroContext>();
  ctx->data = SharedArray<std::uint64_t>(
      sys.heap(), static_cast<std::uint64_t>(params.counters) * 2, 16);
  ctx->turn = sys.heap().alloc(16, 16);  // Own block: spin reads stay off
                                         // the counters.
  ctx->barrier = std::make_unique<Barrier>(sys.heap(), sys.num_procs());
  for (int n = 0; n < sys.num_procs(); ++n) {
    sys.spawn(static_cast<NodeId>(n),
              pingpong_program(sys, ctx, static_cast<NodeId>(n), params));
  }
  sys.retain(ctx);
}

void build_private_rmw(System& sys, const PrivateRmwParams& params) {
  auto ctx = std::make_shared<MicroContext>();
  ctx->data = SharedArray<std::uint64_t>(
      sys.heap(),
      params.words_per_proc * static_cast<std::uint64_t>(sys.num_procs()),
      16);
  ctx->barrier = std::make_unique<Barrier>(sys.heap(), sys.num_procs());
  for (int n = 0; n < sys.num_procs(); ++n) {
    sys.spawn(static_cast<NodeId>(n),
              private_rmw_program(sys, ctx, static_cast<NodeId>(n), params));
  }
  sys.retain(ctx);
}

void build_read_mostly(System& sys, const ReadMostlyParams& params) {
  auto ctx = std::make_shared<MicroContext>();
  ctx->data = SharedArray<std::uint64_t>(sys.heap(), params.words, 16);
  ctx->barrier = std::make_unique<Barrier>(sys.heap(), sys.num_procs());
  for (int n = 0; n < sys.num_procs(); ++n) {
    sys.spawn(static_cast<NodeId>(n),
              read_mostly_program(sys, ctx, static_cast<NodeId>(n), params));
  }
  sys.retain(ctx);
}

}  // namespace lssim

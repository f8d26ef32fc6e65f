#include "workloads/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "mem/shared_heap.hpp"
#include "sim/rng.hpp"
#include "sync/barrier.hpp"
#include "sync/spinlock.hpp"
#include "sync/task_queue.hpp"

namespace lssim {
namespace {

// Right-looking column Cholesky in the SPLASH style: per-processor task
// queues with data affinity and work stealing. Column k is owned by
// processor owner(k); both its cdiv task and all cmod(k, j) tasks are
// pushed to the owner's queue, so (at low processor counts) a column is
// read-modify-written by the *same* processor every visit, with the
// blocks evicted in between visits by the owner's other columns — the
// non-migratory load-store sequences of paper §5.2 that AD cannot detect
// and LS eliminates. At higher processor counts stealing and queue
// contention introduce the migration the paper observes at 16-32p.
//
// Task encoding in the 32-bit queue slots:
//   cdiv(k):    0x80000000 | k
//   cmod(k, j): (j << 15) | k        (requires n < 32768)
constexpr std::uint32_t kCdivFlag = 0x80000000u;

struct CholeskyContext {
  CholeskyParams params;
  int window = 0;
  int chunk = 1;  ///< Columns per ownership chunk.
  SharedArray<std::uint64_t> band;       ///< Column-major packed storage.
  SharedArray<std::uint32_t> mods_done;  ///< cmods applied into column k.
  SharedArray<std::uint32_t> col_locks;  ///< One lock word per column.
  Addr done_count = 0;                   ///< Completed-column counter.
  std::vector<std::unique_ptr<TaskQueue>> queues;  ///< One per processor.
  std::unique_ptr<Barrier> barrier;

  // Dependency structure (host-side mirror; the simulated program reads
  // the flattened read-only copy in succ_list).
  std::vector<std::vector<int>> succ;
  std::vector<int> needed;
  SharedArray<std::uint32_t> succ_list;
  std::vector<std::uint32_t> succ_offset;

  [[nodiscard]] Addr elem(int j, int r) const {
    return band.addr(static_cast<std::uint64_t>(j) * params.bandwidth +
                     static_cast<std::uint64_t>(r));
  }
  [[nodiscard]] NodeId owner(int k, int nprocs) const {
    return static_cast<NodeId>((k / chunk) % nprocs);
  }
};

void build_structure(CholeskyContext& ctx, int nprocs) {
  const CholeskyParams& p = ctx.params;
  ctx.succ.assign(static_cast<std::size_t>(p.n), {});
  ctx.needed.assign(static_cast<std::size_t>(p.n), 0);
  Rng rng(p.seed * 0x9e3779b9u + 1);
  const int chunk = ctx.chunk;
  for (int j = 0; j < p.n; ++j) {
    auto& list = ctx.succ[static_cast<std::size_t>(j)];
    if (p.mode == CholeskyMode::kDenseBand) {
      for (int k = j + 1; k < std::min(p.n, j + p.bandwidth); ++k) {
        list.push_back(k);
      }
    } else {
      // Clustered successors inside one ownership chunk, usually a chunk
      // owned by the same processor (tk15.0 subtree locality): a
      // completed column then has at most one or two reader processors,
      // while the columns feeding INTO any k remain scattered across the
      // window, keeping its visits far apart in time.
      const int first_chunk = j / chunk;  // j's own chunk is allowed
      const int last_chunk =
          std::min((p.n - 1) / chunk, (j + ctx.window) / chunk);
      if (first_chunk <= last_chunk) {
        const int my_owner = (j / chunk) % nprocs;
        const bool want_local = rng.next_bool(p.locality);
        int target = -1;
        for (int attempt = 0; attempt < 8 && target < 0; ++attempt) {
          const int cand =
              first_chunk +
              static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                  last_chunk - first_chunk + 1)));
          if (!want_local || cand % nprocs == my_owner) {
            target = cand;
          }
        }
        if (target < 0) {
          target = first_chunk +
                   static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                       last_chunk - first_chunk + 1)));
        }
        const int max_off = std::max(0, chunk - p.successors);
        const int off =
            static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(max_off) + 1));
        for (int s = 0; s < p.successors; ++s) {
          const int k = target * chunk + off + s;
          if (k > j && k < p.n) {
            list.push_back(k);
          }
        }
      }
    }
    for (int k : list) {
      ctx.needed[static_cast<std::size_t>(k)] += 1;
    }
  }
}

SimTask<void> do_cdiv(System& sys, const CholeskyContext& ctx,
                      NodeId id, int j) {
  Processor& proc = sys.proc(id);
  const CholeskyParams& p = ctx.params;
  const int jcols = p.mode == CholeskyMode::kDenseBand
                        ? std::min(p.bandwidth, p.n - j)
                        : p.bandwidth;
  const double diag = from_bits(co_await proc.read(ctx.elem(j, 0), 8));
  const double root = std::sqrt(std::fabs(diag)) + 1e-30;
  proc.compute(24);
  co_await proc.write(ctx.elem(j, 0), to_bits(root), 8);
  for (int r = 1; r < jcols; ++r) {
    const double v = from_bits(co_await proc.read(ctx.elem(j, r), 8));
    proc.compute(p.compute_per_update);
    co_await proc.write(ctx.elem(j, r), to_bits(v / root), 8);
  }
  // Fan the cmod tasks out to the owners of the destination columns.
  const std::uint32_t base = ctx.succ_offset[static_cast<std::size_t>(j)];
  const int count =
      static_cast<int>(ctx.succ[static_cast<std::size_t>(j)].size());
  const int nprocs = sys.num_procs();
  for (int s = 0; s < count; ++s) {
    const int k = static_cast<int>(
        co_await proc.read(ctx.succ_list.addr(base + s)));
    const std::uint32_t encoded =
        (static_cast<std::uint32_t>(j) << 15) |
        static_cast<std::uint32_t>(k);
    (void)co_await ctx.queues[ctx.owner(k, nprocs)]->push(proc, encoded);
  }
}

SimTask<void> do_cmod(System& sys, const CholeskyContext& ctx,
                      NodeId id, int k, int j) {
  Processor& proc = sys.proc(id);
  const CholeskyParams& p = ctx.params;
  const bool dense = p.mode == CholeskyMode::kDenseBand;
  const int len = p.bandwidth;
  const int jcols = dense ? std::min(len, p.n - j) : len;

  const SpinLock col_lock(
      ctx.col_locks.addr(static_cast<std::uint64_t>(k)));
  co_await col_lock.acquire(proc);
  if (dense) {
    // True banded cmod: A(r, k) -= L(r, j) * L(k, j), in packed slots.
    const int kcols = std::min(len, p.n - k);
    const double l_kj =
        from_bits(co_await proc.read(ctx.elem(j, k - j), 8));
    for (int r = 0; r < kcols && k - j + r < jcols; ++r) {
      const double l_rj =
          from_bits(co_await proc.read(ctx.elem(j, k - j + r), 8));
      const double a_rk = from_bits(co_await proc.read(ctx.elem(k, r), 8));
      proc.compute(p.compute_per_update);
      co_await proc.write(ctx.elem(k, r), to_bits(a_rk - l_rj * l_kj), 8);
    }
  } else {
    // Synthetic sparse cmod: elementwise column update (real FP work,
    // not a true factorization; see header).
    const double l_kj = from_bits(co_await proc.read(ctx.elem(j, 0), 8));
    for (int r = 0; r < len; ++r) {
      const double l_rj = from_bits(co_await proc.read(ctx.elem(j, r), 8));
      const double a_rk = from_bits(co_await proc.read(ctx.elem(k, r), 8));
      proc.compute(p.compute_per_update);
      co_await proc.write(ctx.elem(k, r),
                          to_bits(a_rk - l_rj * l_kj * 1e-3), 8);
    }
  }
  co_await col_lock.release(proc);

  // Publish the modification; the last one schedules cdiv(k) on the
  // owner's queue.
  const std::uint64_t done = co_await proc.fetch_add(
      ctx.mods_done.addr(static_cast<std::uint64_t>(k)), 1);
  if (done + 1 ==
      static_cast<std::uint64_t>(ctx.needed[static_cast<std::size_t>(k)])) {
    (void)co_await ctx.queues[ctx.owner(k, sys.num_procs())]->push(
        proc, kCdivFlag | static_cast<std::uint32_t>(k));
  }
}

SimTask<void> cholesky_program(System& sys,
                               std::shared_ptr<CholeskyContext> ctx,
                               NodeId id) {
  Processor& proc = sys.proc(id);
  const CholeskyParams& p = ctx->params;
  const int n = p.n;
  const int nprocs = sys.num_procs();

  // Processor 0 seeds the matrix, publishes the read-only successor
  // lists, and schedules the dependency-free columns on their owners.
  if (id == 0) {
    const bool dense = p.mode == CholeskyMode::kDenseBand;
    for (int j = 0; j < n; ++j) {
      const int cols = dense ? std::min(p.bandwidth, n - j) : p.bandwidth;
      for (int r = 0; r < cols; ++r) {
        const double value =
            (r == 0) ? 2.0 * p.bandwidth : 1.0 / (1.0 + r);
        co_await proc.write(ctx->elem(j, r), to_bits(value), 8);
      }
    }
    std::uint32_t cursor = 0;
    for (int j = 0; j < n; ++j) {
      for (int k : ctx->succ[static_cast<std::size_t>(j)]) {
        co_await proc.write(ctx->succ_list.addr(cursor++),
                            static_cast<std::uint64_t>(k));
      }
    }
    for (int k = 0; k < n; ++k) {
      if (ctx->needed[static_cast<std::size_t>(k)] == 0) {
        (void)co_await ctx->queues[ctx->owner(k, nprocs)]->push(
            proc, kCdivFlag | static_cast<std::uint32_t>(k));
      }
    }
  }
  co_await ctx->barrier->wait(proc);

  int empty_polls = 0;
  for (;;) {
    const std::uint64_t finished = co_await proc.read(ctx->done_count);
    if (finished == static_cast<std::uint64_t>(n)) {
      break;  // Factorization complete.
    }
    // Own queue first; steal only as a last resort (after several empty
    // polls) so column-processor affinity survives transient droughts.
    std::int64_t task = co_await ctx->queues[id]->pop(proc);
    if (task < 0 && ++empty_polls >= 10) {
      for (int offset = 1; task < 0 && offset < nprocs; ++offset) {
        task = co_await ctx->queues[(id + offset) % nprocs]->pop(proc);
      }
    }
    if (task < 0) {
      proc.compute(120 + proc.rng().next_below(120));
      continue;
    }
    empty_polls = 0;
    const auto encoded = static_cast<std::uint32_t>(task);
    if ((encoded & kCdivFlag) != 0) {
      const int j = static_cast<int>(encoded & ~kCdivFlag);
      co_await do_cdiv(sys, *ctx, id, j);
      (void)co_await proc.fetch_add(ctx->done_count, 1);
    } else {
      const int k = static_cast<int>(encoded & 0x7fffu);
      const int j = static_cast<int>(encoded >> 15);
      co_await do_cmod(sys, *ctx, id, k, j);
    }
  }
}

}  // namespace

void build_cholesky(System& sys, const CholeskyParams& params) {
  auto ctx = std::make_shared<CholeskyContext>();
  ctx->params = params;
  ctx->window =
      params.window > 0 ? params.window : std::max(2, params.n / 2);
  // Ownership granularity: contiguous runs of columns per processor,
  // like SPLASH's panel placement; wide enough to hold one successor run.
  ctx->chunk = std::max(8, params.successors + 2);
  build_structure(*ctx, sys.num_procs());

  std::uint64_t total_succ = 0;
  ctx->succ_offset.resize(static_cast<std::size_t>(params.n));
  for (int j = 0; j < params.n; ++j) {
    ctx->succ_offset[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>(total_succ);
    total_succ += ctx->succ[static_cast<std::size_t>(j)].size();
  }

  ctx->band = SharedArray<std::uint64_t>(
      sys.heap(),
      static_cast<std::uint64_t>(params.n) * params.bandwidth, 16);
  ctx->mods_done = SharedArray<std::uint32_t>(
      sys.heap(), static_cast<std::uint64_t>(params.n), 4);
  ctx->col_locks = SharedArray<std::uint32_t>(
      sys.heap(), static_cast<std::uint64_t>(params.n), 4);
  ctx->done_count = sys.heap().alloc(4, 4);
  ctx->succ_list = SharedArray<std::uint32_t>(
      sys.heap(), std::max<std::uint64_t>(total_succ, 1), 4);
  for (int q = 0; q < sys.num_procs(); ++q) {
    // Queue capacity: every cmod plus every cdiv could momentarily sit in
    // one queue.
    ctx->queues.push_back(std::make_unique<TaskQueue>(
        sys.heap(),
        static_cast<std::uint32_t>(total_succ + params.n + 1)));
  }
  ctx->barrier = std::make_unique<Barrier>(sys.heap(), sys.num_procs());

  for (int n = 0; n < sys.num_procs(); ++n) {
    sys.spawn(static_cast<NodeId>(n),
              cholesky_program(sys, ctx, static_cast<NodeId>(n)));
  }
  sys.retain(ctx);
}

}  // namespace lssim

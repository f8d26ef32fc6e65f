#include "workloads/oltp.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/shared_heap.hpp"
#include "sync/barrier.hpp"
#include "sync/spinlock.hpp"

namespace lssim {
namespace {

// Record layouts (bytes). 16-byte records put two tellers / branches into
// one 32-byte OLTP cache block: deliberate false sharing (paper Table 4).
constexpr std::uint64_t kRecordWords = 2;  // 2 x 8B.

struct OltpContext {
  OltpParams params;
  int tellers = 0;

  // --- database (app) --------------------------------------------------
  SharedArray<std::uint64_t> branch_recs;
  SharedArray<std::uint64_t> teller_recs;
  SharedArray<std::uint64_t> account_recs;
  SharedArray<std::uint64_t> index_root;      // 16 words, read-shared.
  SharedArray<std::uint64_t> index_interior;  // 64 nodes x 1 word.
  SharedArray<std::uint64_t> index_leaf;      // 1024 leaf words.
  Addr history_tail = 0;
  SharedArray<std::uint64_t> history;
  SharedArray<std::uint64_t> bufpool_frames;  // Frame metadata words.
  Addr bufpool_clock = 0;
  // ISAM key-cache block headers: one word per 256-account page, read-
  // modify-written on every update. Constantly reused by all processors
  // but evicted between uses (the array exceeds the scaled cache), so
  // its migration is invisible to live-copy detection — the paper's
  // "changing access behavior" metadata. Four headers share a cache
  // block: genuine false sharing (Table 4).
  SharedArray<std::uint64_t> key_cache;

  // --- lock manager (library) ------------------------------------------
  // 256 TATAS lock words, one cache block apart (a packed lock table
  // would add false sharing between unrelated spinners).
  SharedArray<std::uint32_t> lock_table;
  Addr alloc_freelist = 0;  // Shared allocator head.

  [[nodiscard]] Addr lock_addr(std::uint32_t resource) const {
    return lock_table.addr(static_cast<std::uint64_t>(resource & 255u) *
                           kLockStrideWords);
  }
  static constexpr std::uint64_t kLockStrideWords = 64;  // 256 B apart.

  // --- operating system (os) -------------------------------------------
  std::unique_ptr<TicketLock> runqueue_lock;
  Addr ready_count = 0;
  // Per-CPU usage slots, one cache block apart (per-CPU data is padded
  // even in 1990s kernels).
  SharedArray<std::uint64_t> cpu_usage;
  static constexpr std::uint64_t kCpuStrideWords = 32;  // 256 B apart.
  [[nodiscard]] Addr cpu_slot(int cpu) const {
    return cpu_usage.addr(static_cast<std::uint64_t>(cpu) *
                          kCpuStrideWords);
  }

  std::unique_ptr<Barrier> barrier;

  [[nodiscard]] Addr rec(const SharedArray<std::uint64_t>& table,
                         int id) const {
    return table.addr(static_cast<std::uint64_t>(id) * kRecordWords);
  }
};

// TATAS acquire/release on a lock-table word, tagged as library code.
SimTask<void> lock_acquire(Processor& proc, const OltpContext& ctx,
                           std::uint32_t resource) {
  const SpinLock lock(ctx.lock_addr(resource));
  const StreamTag saved = proc.stream();
  proc.set_stream(StreamTag::kLibrary);
  co_await lock.acquire(proc);
  proc.set_stream(saved);
}

SimTask<void> lock_release(Processor& proc, const OltpContext& ctx,
                           std::uint32_t resource) {
  const SpinLock lock(ctx.lock_addr(resource));
  const StreamTag saved = proc.stream();
  proc.set_stream(StreamTag::kLibrary);
  co_await lock.release(proc);
  proc.set_stream(saved);
}

// OS scheduler entry/exit around each transaction.
SimTask<void> os_schedule(Processor& proc, OltpContext& ctx) {
  proc.set_stream(StreamTag::kOs);
  co_await ctx.runqueue_lock->acquire(proc);
  const std::uint64_t ready = co_await proc.read(ctx.ready_count, 8);
  co_await proc.write(ctx.ready_count, ready + 1, 8);
  co_await ctx.runqueue_lock->release(proc);
  // Quantum accounting in this CPU's usage slot.
  const Addr slot = ctx.cpu_slot(proc.id());
  const std::uint64_t used = co_await proc.read(slot, 8);
  co_await proc.write(slot, used + 1, 8);
  proc.set_stream(StreamTag::kApp);
}

// Periodic OS load balancing: read every CPU's usage slot (foreign reads
// that break load-store sequences on those slots).
SimTask<void> os_load_balance(Processor& proc, OltpContext& ctx,
                              int nprocs) {
  proc.set_stream(StreamTag::kOs);
  std::uint64_t total = 0;
  for (int c = 0; c < nprocs; ++c) {
    total += co_await proc.read(ctx.cpu_slot(c), 8);
  }
  co_await ctx.runqueue_lock->acquire(proc);
  co_await proc.write(ctx.ready_count, total & 0xffff, 8);
  co_await ctx.runqueue_lock->release(proc);
  proc.set_stream(StreamTag::kApp);
}

// Generic record accessors: ALL table-record traffic funnels through
// these two call sites, like a real DBMS's shared row-access routines
// (rec_get/rec_set in MySQL terms). For the instruction-centric kIls
// technique this is the crucial property: one static site serves both
// read-only and read-modify-write paths over both private and shared
// records, so per-site prediction cannot separate them (the ICPP'99
// OLTP finding) — whereas the data-centric LS bit adapts per block.
// They return the access's awaitable instead of being coroutines, so a
// record access costs no nested frame.
MemAwait rec_read(Processor& proc, Addr addr) { return proc.read(addr, 8); }

MemAwait rec_write(Processor& proc, Addr addr, std::uint64_t value) {
  return proc.write(addr, value, 8);
}

// Index walk: root -> interior -> leaf (read-shared path).
SimTask<std::uint32_t> index_lookup(Processor& proc, OltpContext& ctx,
                                    std::uint32_t account) {
  const std::uint64_t root =
      co_await proc.read(ctx.index_root.addr(account & 15u), 8);
  const std::uint64_t interior = co_await proc.read(
      ctx.index_interior.addr((account >> 4) & 63u), 8);
  const std::uint64_t leaf = co_await proc.read(
      ctx.index_leaf.addr(account & 1023u), 8);
  proc.compute(80);  // Key comparisons and record decoding.
  co_return static_cast<std::uint32_t>((root + interior + leaf) & 0u) +
      account;  // The walk is structural; the key maps to itself.
}

// Buffer-pool touch: read the frame word; every 8th touch updates the
// reference bit (a write to a widely read block).
SimTask<void> bufpool_touch(Processor& proc, OltpContext& ctx,
                            std::uint32_t page, bool write_ref) {
  const Addr frame = ctx.bufpool_frames.addr(page & 511u);
  const std::uint64_t meta = co_await proc.read(frame, 8);
  if (write_ref) {
    co_await proc.write(frame, meta | 1u, 8);
  }
}

SimTask<void> oltp_program(System& sys, std::shared_ptr<OltpContext> ctx,
                           NodeId id) {
  Processor& proc = sys.proc(id);
  const int nprocs = sys.num_procs();
  const OltpParams& p = ctx->params;

  // Processor 0 seeds the database.
  if (id == 0) {
    proc.set_stream(StreamTag::kApp);
    for (int b = 0; b < p.branches; ++b) {
      co_await proc.write(ctx->rec(ctx->branch_recs, b), 1000, 8);
    }
    for (int t = 0; t < ctx->tellers; ++t) {
      co_await proc.write(ctx->rec(ctx->teller_recs, t), 100, 8);
    }
    for (std::uint64_t i = 0; i < ctx->index_root.size(); ++i) {
      co_await proc.write(ctx->index_root.addr(i), i, 8);
    }
    for (std::uint64_t i = 0; i < ctx->index_interior.size(); ++i) {
      co_await proc.write(ctx->index_interior.addr(i), i, 8);
    }
    for (std::uint64_t i = 0; i < ctx->index_leaf.size(); ++i) {
      co_await proc.write(ctx->index_leaf.addr(i), i, 8);
    }
  }
  co_await ctx->barrier->wait(proc);

  Rng& rng = proc.rng();
  int updates_done = 0;

  for (int txn = 0; txn < p.txns_per_proc; ++txn) {
    // Scheduler involvement once per timeslice (several transactions fit
    // in one quantum), not per transaction.
    if (txn % 8 == 0) {
      co_await os_schedule(proc, *ctx);
    }
    if (p.balance_interval > 0 && txn % p.balance_interval == 0) {
      co_await os_load_balance(proc, *ctx, nprocs);
    }

    // Pick the working set for this transaction. Terminals are bound to
    // home branches (TPC-B): mostly processor-local branch/teller, with
    // a remote fraction that migrates between processors. Hot accounts
    // are connection-affine (per-processor partition).
    const bool hot = rng.next_bool(p.hot_fraction);
    std::uint32_t account;
    if (hot) {
      // Skewed pick within this processor's hot span: the popular head
      // is revisited often, the tail occasionally (after eviction).
      double u = rng.next_double();
      double frac = 1.0;
      for (double e = p.zipf_exponent; e >= 1.0; e -= 1.0) frac *= u;
      frac *= 1.0 + (p.zipf_exponent - static_cast<int>(p.zipf_exponent)) *
                        (u - 1.0);  // Linear blend for fractional part.
      const auto span = static_cast<std::uint64_t>(p.hot_accounts);
      const std::uint64_t offset = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(frac * static_cast<double>(span)),
          span - 1);
      account = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(id) * span + offset);
    } else {
      account = static_cast<std::uint32_t>(
          rng.next_below(static_cast<std::uint64_t>(p.accounts)));
    }
    const bool home = rng.next_bool(p.home_branch_fraction);
    int branch;
    if (home) {
      // Branches with (branch % nprocs) == id are this terminal's.
      const int local_count = (p.branches + nprocs - 1 - id) / nprocs;
      branch = id + nprocs * static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(local_count)));
    } else {
      branch = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(p.branches)));
    }
    const int teller = branch * p.tellers_per_branch +
                       static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(p.tellers_per_branch)));
    const std::int64_t delta =
        static_cast<std::int64_t>(rng.next_range(1, 99)) - 50;

    const std::uint32_t key = co_await index_lookup(proc, *ctx, account);
    co_await bufpool_touch(proc, *ctx, key >> 3, (txn & 3) == 0);

    if (rng.next_bool(p.lookup_fraction)) {
      // Read-only balance query: account, teller and a couple of branch
      // balances — the read-sharing that later updates must invalidate.
      (void)co_await rec_read(proc, ctx->rec(ctx->account_recs,
                                             static_cast<int>(key)));
      (void)co_await rec_read(proc, ctx->rec(ctx->teller_recs, teller));
      (void)co_await rec_read(proc, ctx->rec(ctx->branch_recs, branch));
      // Branch-summary scan: balance queries aggregate several branches,
      // keeping branch records read-shared across processors (the writes
      // to them then invalidate several copies — paper §5.4's ~1.4
      // invalidations per global write).
      for (int scan = 0; scan < 4; ++scan) {
        const int other_branch = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(p.branches)));
        (void)co_await rec_read(
            proc, ctx->rec(ctx->branch_recs, other_branch));
      }
      proc.compute(p.think_cycles / 2);
      continue;
    }

    // Update transaction: teller lock, branch lock, balance updates,
    // history append (classic TPC-B profile). Teller locks hash into
    // slots 0-127 and branch locks into 128-255: the classes must not
    // collide or a teller-then-branch transaction can deadlock against
    // one whose branch slot equals the first's teller slot.
    const std::uint32_t teller_res =
        static_cast<std::uint32_t>(teller) & 127u;
    const std::uint32_t branch_res =
        128u + (static_cast<std::uint32_t>(branch) & 127u);
    co_await lock_acquire(proc, *ctx, teller_res);
    co_await lock_acquire(proc, *ctx, branch_res);

    // Account balance (read-modify-write through the shared accessors).
    const Addr acct = ctx->rec(ctx->account_recs, static_cast<int>(key));
    const std::uint64_t abal = co_await rec_read(proc, acct);
    co_await rec_write(proc, acct, abal + static_cast<std::uint64_t>(delta));
    co_await rec_write(proc, acct + 8, static_cast<std::uint64_t>(txn));

    // Teller balance.
    const Addr tell = ctx->rec(ctx->teller_recs, teller);
    const std::uint64_t tbal = co_await rec_read(proc, tell);
    co_await rec_write(proc, tell, tbal + static_cast<std::uint64_t>(delta));

    // Branch balance.
    const Addr bran = ctx->rec(ctx->branch_recs, branch);
    const std::uint64_t bbal = co_await rec_read(proc, bran);
    co_await rec_write(proc, bran, bbal + static_cast<std::uint64_t>(delta));

    // Key-cache header for the account's page (read-modify-write).
    {
      const Addr header = ctx->key_cache.addr((account >> 8) & 4095u);
      const std::uint64_t uses = co_await rec_read(proc, header);
      co_await rec_write(proc, header, uses + 1);
    }

    // History append: migratory tail counter + record write. The awaited
    // value gets its own statement: with the co_await as an operand of
    // `%`, g++ 12 under -fsanitize=address,undefined divided by zero after
    // the resumption although the ring always has 8192 slots.
    const std::uint64_t tail =
        co_await proc.fetch_add(ctx->history_tail, 1, 8);
    const std::uint64_t slot = tail % (ctx->history.size() / kRecordWords);
    const Addr hist = ctx->rec(ctx->history, static_cast<int>(slot));
    co_await proc.write(hist, (static_cast<std::uint64_t>(branch) << 32) |
                                  key, 8);
    co_await proc.write(hist + 8, static_cast<std::uint64_t>(delta), 8);

    // Occasional index split: a write to a widely read-shared node.
    ++updates_done;
    if (p.split_interval > 0 && updates_done % p.split_interval == 0) {
      const std::uint64_t node = (account >> 4) & 63u;
      const std::uint64_t v =
          co_await proc.read(ctx->index_interior.addr(node), 8);
      co_await proc.write(ctx->index_interior.addr(node), v + 1, 8);
    }

    // Shared allocator bump every few transactions (library).
    if ((txn & 3) == 0) {
      proc.set_stream(StreamTag::kLibrary);
      co_await proc.fetch_add(ctx->alloc_freelist, 16, 8);
      proc.set_stream(StreamTag::kApp);
    }

    co_await lock_release(proc, *ctx, branch_res);
    co_await lock_release(proc, *ctx, teller_res);
    proc.compute(p.think_cycles);
  }
}

}  // namespace

std::string OltpParams::validate(int procs) const {
  if (branches < procs) {
    return "branches (" + std::to_string(branches) + ") < procs (" +
           std::to_string(procs) + "): every processor needs a home branch";
  }
  if (static_cast<std::int64_t>(procs) * hot_accounts > accounts) {
    return "procs (" + std::to_string(procs) + ") x hot_accounts (" +
           std::to_string(hot_accounts) + ") exceeds accounts (" +
           std::to_string(accounts) + "): every hot span must fit the table";
  }
  return {};
}

void build_oltp(System& sys, const OltpParams& params) {
  if (const std::string problem = params.validate(sys.num_procs());
      !problem.empty()) {
    throw std::invalid_argument("oltp: " + problem);
  }
  auto ctx = std::make_shared<OltpContext>();
  ctx->params = params;
  ctx->tellers = params.branches * params.tellers_per_branch;

  SharedHeap& heap = sys.heap();
  ctx->branch_recs = SharedArray<std::uint64_t>(
      heap, static_cast<std::uint64_t>(params.branches) * kRecordWords, 16);
  ctx->teller_recs = SharedArray<std::uint64_t>(
      heap, static_cast<std::uint64_t>(ctx->tellers) * kRecordWords, 16);
  ctx->account_recs = SharedArray<std::uint64_t>(
      heap, static_cast<std::uint64_t>(params.accounts) * kRecordWords, 16);
  ctx->index_root = SharedArray<std::uint64_t>(heap, 16, 8);
  ctx->index_interior = SharedArray<std::uint64_t>(heap, 64, 8);
  ctx->index_leaf = SharedArray<std::uint64_t>(heap, 1024, 8);
  ctx->history_tail = heap.alloc(8, 8);
  ctx->history = SharedArray<std::uint64_t>(heap, 8192 * kRecordWords, 16);
  ctx->bufpool_frames = SharedArray<std::uint64_t>(heap, 512, 8);
  ctx->bufpool_clock = heap.alloc(8, 8);
  ctx->key_cache = SharedArray<std::uint64_t>(heap, 4096, 8);
  ctx->lock_table = SharedArray<std::uint32_t>(
      heap, 256 * OltpContext::kLockStrideWords, 256);
  ctx->alloc_freelist = heap.alloc(8, 8);
  ctx->runqueue_lock = std::make_unique<TicketLock>(heap);
  ctx->ready_count = heap.alloc(8, 256);
  // Sized for the running processor count but never below the historical
  // kMaxNodes of 64: heap layout (and hence every figure derived from
  // this workload) must not shift just because the node-id ceiling grew.
  const std::uint64_t cpu_slots =
      std::max<std::uint64_t>(64, static_cast<std::uint64_t>(sys.num_procs()));
  ctx->cpu_usage = SharedArray<std::uint64_t>(
      heap, cpu_slots * OltpContext::kCpuStrideWords, 256);
  ctx->barrier = std::make_unique<Barrier>(heap, sys.num_procs());

  for (int n = 0; n < sys.num_procs(); ++n) {
    sys.spawn(static_cast<NodeId>(n),
              oltp_program(sys, ctx, static_cast<NodeId>(n)));
  }
  sys.retain(ctx);
}

}  // namespace lssim

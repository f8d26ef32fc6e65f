// Spin locks operating on *simulated* shared memory.
//
// Lock words live in the simulated address space, so acquire/release
// generate real coherence traffic: the test-and-test-and-set acquire is a
// read (shared copy) followed by an atomic swap (ownership acquisition) —
// precisely the load-store sequence the paper's technique targets, and
// the reason its OLTP workload spends 49% less time in pthread critical
// sections under LS (paper §5.4).
#pragma once

#include <algorithm>
#include <cstdint>

#include "machine/processor.hpp"
#include "mem/shared_heap.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace lssim {

/// Test-and-test-and-set spin lock with randomized exponential backoff.
///
/// Fairness note (applies to real CC-NUMA machines as much as to this
/// simulator): a holder that releases and promptly re-acquires does so
/// from its own cache in a few cycles, while a remote waiter's probe ->
/// swap gap is at least one read-miss latency — so a waiter whose swap is
/// always gated behind a fresh probe can lose *every* race. acquire()
/// therefore probes first (the probe+swap pair is precisely the
/// load-store sequence the paper's lock analysis relies on), but on a
/// failed swap it issues a short burst of direct swaps at randomized,
/// exponentially growing offsets, which de-correlates its attempts from
/// the holder's cycle and makes starvation vanishingly unlikely.
class SpinLock {
 public:
  /// Allocates the lock word on the heap, padded to its own cache block
  /// (256-byte alignment covers every supported block size); callers
  /// wanting false sharing between locks can place several locks
  /// manually with the Addr constructor.
  explicit SpinLock(SharedHeap& heap) : addr_(heap.alloc(4, 256)) {}
  /// Uses an existing simulated word as the lock.
  explicit SpinLock(Addr addr) : addr_(addr) {}

  // NOTE: awaits below are hoisted into named locals (never placed in
  // condition expressions) — see the GCC 12 workaround note in sim/task.hpp.
  [[nodiscard]] SimTask<void> acquire(Processor& proc) const {
    Cycles backoff = kBackoffCycles;
    for (;;) {
      // Test: spin on a (cached, shared) read until the lock looks free.
      co_await proc.spin_until(addr_, 0, backoff, 2 * backoff);
      // Test-and-set burst: one atomic swap == one ownership
      // acquisition; retry a few times at randomized offsets before
      // falling back to polite probing (see fairness note above).
      for (int attempt = 0; attempt < kSwapBurst; ++attempt) {
        const std::uint64_t old = co_await proc.swap(addr_, 1);
        if (old == 0) {
          co_return;
        }
        backoff = std::min<Cycles>(backoff * 2, kMaxBackoffCycles);
        proc.compute(proc.rng().next_range(backoff, 2 * backoff));
      }
    }
  }

  [[nodiscard]] SimTask<void> release(Processor& proc) const {
    co_await proc.write(addr_, 0);
  }

  /// Non-blocking acquire attempt; resumes with true on success.
  [[nodiscard]] SimTask<bool> try_acquire(Processor& proc) const {
    const std::uint64_t held = co_await proc.read(addr_);
    if (held != 0) {
      co_return false;
    }
    const std::uint64_t old = co_await proc.swap(addr_, 1);
    co_return old == 0;
  }

  [[nodiscard]] Addr addr() const noexcept { return addr_; }

 private:
  static constexpr Cycles kBackoffCycles = 6;
  static constexpr Cycles kMaxBackoffCycles = 768;
  static constexpr int kSwapBurst = 4;
  Addr addr_;
};

/// Ticket lock: FIFO ordering, one fetch_add to enter, spin on the
/// now-serving counter. Generates a different sharing pattern than TATAS
/// (the serving counter is written by the releaser and read by all
/// waiters), used by the OLTP "OS" run queue.
class TicketLock {
 public:
  /// The ticket counter and the now-serving word live on separate cache
  /// blocks: arrivals (fetch_add on next) must not invalidate the
  /// waiters spinning on serving.
  explicit TicketLock(SharedHeap& heap)
      : next_addr_(heap.alloc(4, 256)), serving_addr_(heap.alloc(4, 256)) {}

  [[nodiscard]] SimTask<void> acquire(Processor& proc) const {
    const std::uint64_t my = co_await proc.fetch_add(next_addr_, 1);
    co_await proc.spin_until(serving_addr_, my, kBackoffCycles,
                             kBackoffCycles);
  }

  [[nodiscard]] SimTask<void> release(Processor& proc) const {
    const std::uint64_t serving = co_await proc.read(serving_addr_);
    co_await proc.write(serving_addr_, serving + 1);
  }

 private:
  static constexpr Cycles kBackoffCycles = 6;
  Addr next_addr_;
  Addr serving_addr_;
};

}  // namespace lssim

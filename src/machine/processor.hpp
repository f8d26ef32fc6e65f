// Simulated processor: the workload-facing handle for issuing memory
// accesses from coroutine programs.
//
// Usage inside a SimTask<void> coroutine:
//   const std::uint64_t v = co_await proc.read(addr);
//   co_await proc.write(addr, v + 1);
//   proc.compute(20);   // 20 cycles of busy work, no suspension
//
// Every co_await suspends the program; the System scheduler executes the
// access atomically at this processor's current time and resumes the
// program with the result. Atomic RMWs (swap / fetch_add / cas) are single
// coherence transactions, like SPARC ldstub/swap.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <source_location>

#include "core/protocol.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace lssim {

class Processor;

/// Awaitable produced by Processor::read/write/swap/fetch_add/cas.
struct MemAwait {
  Processor& proc;
  AccessRequest req;
  bool spin = false;  ///< A Processor::spin_until probe.

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) noexcept;
  [[nodiscard]] std::uint64_t await_resume() const noexcept;
};

class Processor {
 public:
  Processor(NodeId id, std::uint64_t rng_seed)
      : id_(id), rng_(rng_seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))) {}

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  // ---- workload-facing operations ------------------------------------
  // Every operation captures its *call site* (std::source_location): the
  // simulator's stand-in for the program counter of the load/store
  // instruction, consumed by the instruction-centric kIls technique.
  [[nodiscard]] MemAwait read(
      Addr addr, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{
        *this, {MemOpKind::kRead, addr, size, 0, 0, stream_, site_of(loc)}};
  }
  [[nodiscard]] MemAwait write(
      Addr addr, std::uint64_t value, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kWrite, addr, size, value, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically stores `value`; resumes with the old value.
  [[nodiscard]] MemAwait swap(
      Addr addr, std::uint64_t value, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kSwap, addr, size, value, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically adds `delta`; resumes with the old value.
  [[nodiscard]] MemAwait fetch_add(
      Addr addr, std::uint64_t delta, unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kFetchAdd, addr, size, delta, 0, stream_,
                     site_of(loc)}};
  }
  /// Atomically stores `desired` if the value equals `expected`; resumes
  /// with the old value (success iff old == expected).
  [[nodiscard]] MemAwait cas(
      Addr addr, std::uint64_t expected, std::uint64_t desired,
      unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    return MemAwait{*this,
                    {MemOpKind::kCas, addr, size, desired, expected, stream_,
                     site_of(loc)}};
  }

  /// Re-reads `addr` (all probes at this call site) until it holds
  /// `target`, computing between failed probes `gap_lo` cycles, or one
  /// rng().next_range(gap_lo, gap_hi) draw when gap_hi > gap_lo. The
  /// program resumes only at the end: System::run issues the probes, and
  /// may account them in bulk (system.hpp, spin parking).
  [[nodiscard]] MemAwait spin_until(
      Addr addr, std::uint64_t target, Cycles gap_lo, Cycles gap_hi,
      unsigned size = 4,
      std::source_location loc = std::source_location::current()) noexcept {
    spin_target_ = target;
    spin_gap_lo_ = gap_lo;
    spin_gap_hi_ = gap_hi;
    return MemAwait{
        *this, {MemOpKind::kRead, addr, size, 0, 0, stream_, site_of(loc)},
        true};
  }

  /// Compact hash of a source location (constant-time: the file-name
  /// pointer is stable per translation unit).
  [[nodiscard]] static std::uint32_t site_of(
      const std::source_location& loc) noexcept {
    const auto file = reinterpret_cast<std::uintptr_t>(loc.file_name());
    std::uint64_t h = static_cast<std::uint64_t>(file) * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(loc.line()) << 20) ^ loc.column();
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::uint32_t>(h >> 32);
  }

  /// Advances local time by `cycles` of busy (compute) work. Does not
  /// suspend: ordering is re-established at the next memory access.
  void compute(Cycles cycles) noexcept {
    time_ += cycles;
    busy_ += cycles;
  }

  /// Tags subsequent accesses as app / library / OS work (paper Table 2).
  void set_stream(StreamTag tag) noexcept { stream_ = tag; }
  [[nodiscard]] StreamTag stream() const noexcept { return stream_; }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Cycles time() const noexcept { return time_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  friend class System;
  friend struct MemAwait;

  /// The compute gap after a failed spin probe.
  Cycles spin_gap() noexcept {
    return spin_gap_lo_ == spin_gap_hi_
               ? spin_gap_lo_
               : rng_.next_range(spin_gap_lo_, spin_gap_hi_);
  }

  NodeId id_;
  Rng rng_;
  StreamTag stream_ = StreamTag::kApp;

  Cycles time_ = 0;
  Cycles busy_ = 0;  // Accumulated compute cycles (moved to Stats at end).

  // Scheduler rendezvous state.
  bool has_pending_ = false;
  AccessRequest pending_{};
  std::coroutine_handle<> resume_point_;
  std::uint64_t result_ = 0;

  // spin_until in progress (the pending read re-issues until it returns
  // spin_target_), and whether its probes are parked.
  bool spinning_ = false;
  bool parked_ = false;
  std::uint64_t spin_target_ = 0;
  Cycles spin_gap_lo_ = 0;
  Cycles spin_gap_hi_ = 0;

  // Outstanding buffered-store completion times (processor consistency;
  // empty under sequential consistency).
  std::deque<Cycles> write_buffer_;
};

inline void MemAwait::await_suspend(std::coroutine_handle<> handle) noexcept {
  proc.pending_ = req;
  proc.has_pending_ = true;
  proc.resume_point_ = handle;
  proc.spinning_ = spin;
}

inline std::uint64_t MemAwait::await_resume() const noexcept {
  return proc.result_;
}

}  // namespace lssim

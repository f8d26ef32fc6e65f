// Coroutine task types used to express simulated-processor programs.
//
// A workload "thread" is an ordinary C++20 coroutine returning SimTask<void>.
// Every simulated memory access inside it is a co_await; the scheduler in
// machine/system.hpp resumes the processor whose local clock is earliest,
// which realises a sequentially consistent global interleaving.
//
// SimTask supports nesting (helper coroutines awaited with co_await) via
// continuation chaining with symmetric transfer, so locks, barriers and
// workload subroutines compose naturally.
//
// PORTABILITY WORKAROUND (GCC 12.x): a coroutine whose body contains
// `co_await` inside a *condition* expression — `while (co_await x)`,
// `do {...} while (co_await x)`, `if (co_await x)` — is miscompiled by
// GCC 12 when awaited through symmetric transfer (the child coroutine is
// never entered; verified with a 60-line standalone reproducer). Always
// hoist the await into a named local first:
//     for (;;) { const auto v = co_await p.read(a); if (v != 0) break; }
// Awaits in initializers, call arguments and ordinary binary expressions
// are unaffected.
//
// FRAME POOL: every nested call (a lock, a record read, a barrier wait)
// creates a coroutine frame. PromiseBase routes frame allocation through
// a per-thread free list in 64-byte size classes up to 4 KiB, so a
// steady-state run takes no frame from the host heap; larger frames go
// straight to ::operator new. Each thread's pool holds at most that
// thread's peak number of live frames and frees them when the thread
// exits. A frame released on another thread joins that thread's list;
// nothing is shared between threads. Pooled frames are poisoned for
// AddressSanitizer, so resuming a destroyed task is still reported.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <new>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace lssim {

template <typename T>
class SimTask;

/// The calling thread's coroutine-frame counters (diagnostics and tests).
struct FramePoolStats {
  /// Frames allocated minus frames released on this thread.
  std::int64_t live = 0;
  /// Frames this thread took from the heap: pool misses and oversize
  /// frames. Flat across a repeated run once the pool is warm.
  std::uint64_t heap = 0;
};

namespace detail {

inline constexpr std::size_t kFrameGranule = 64;
// Pooled up to 4 KiB: nested-call frames are at most 512 bytes, but
// top-level workload programs reach 1.5 KiB (oltp_program, g++ 12).
inline constexpr std::size_t kFrameClasses = 64;

struct FreeFrame {
  FreeFrame* next;
};

struct FramePool {
  enum class Phase : unsigned char { kUnused, kActive, kRetired };
  FreeFrame* free[kFrameClasses] = {};
  FramePoolStats stats;
  // kRetired once the thread's exit handler has freed the lists; later
  // releases on this thread go to ::operator delete.
  Phase phase = Phase::kUnused;
};

// Trivially destructible and constant-initialised, so the hot path reads
// it without a guard; frame_pool_activate() registers the exit handler.
inline constinit thread_local FramePool frame_pool;

/// Arms the calling thread's exit handler on first use. False once the
/// thread's pool has been torn down.
bool frame_pool_activate() noexcept;

inline void* allocate_frame(std::size_t size) {
  FramePool& pool = frame_pool;
  ++pool.stats.live;
  const std::size_t cls = (size - 1) / kFrameGranule;
  if (cls < kFrameClasses) {
    size = (cls + 1) * kFrameGranule;
    if (FreeFrame* frame = pool.free[cls]) {
      ASAN_UNPOISON_MEMORY_REGION(frame, size);
      pool.free[cls] = frame->next;
      return frame;
    }
  }
  ++pool.stats.heap;
  return ::operator new(size);
}

inline void release_frame(void* frame, std::size_t size) noexcept {
  FramePool& pool = frame_pool;
  --pool.stats.live;
  const std::size_t cls = (size - 1) / kFrameGranule;
  if (cls < kFrameClasses) {
    size = (cls + 1) * kFrameGranule;
    if (pool.phase == FramePool::Phase::kActive || frame_pool_activate()) {
      pool.free[cls] = ::new (frame) FreeFrame{pool.free[cls]};
      ASAN_POISON_MEMORY_REGION(frame, size);
      return;
    }
  }
  ::operator delete(frame, size);
}

struct PromiseBase {
  std::coroutine_handle<> continuation;

  static void* operator new(std::size_t size) { return allocate_frame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    release_frame(frame, size);
  }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> handle) const noexcept {
      auto cont = handle.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
    return {};
  }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  // Workload coroutines must not leak exceptions into the scheduler; a
  // throwing workload is a bug in the simulation setup.
  [[noreturn]] void unhandled_exception() const noexcept { std::abort(); }
};

}  // namespace detail

/// Counters of the calling thread's frame pool.
[[nodiscard]] inline FramePoolStats frame_pool_stats() noexcept {
  return detail::frame_pool.stats;
}

/// Lazily-started coroutine task. Move-only; owns the coroutine frame.
template <typename T = void>
class [[nodiscard]] SimTask {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    SimTask get_return_object() noexcept {
      return SimTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) noexcept { value = std::move(v); }
  };

  SimTask() noexcept = default;
  SimTask(SimTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { destroy(); }

  /// Awaiting a SimTask starts the child coroutine and resumes the parent
  /// (via symmetric transfer) once the child co_returns.
  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) const noexcept {
      child.promise().continuation = parent;
      return child;
    }
    T await_resume() const { return std::move(child.promise().value); }
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

  /// Starts or continues the task from the outside (top-level only).
  void resume() const { handle_.resume(); }
  [[nodiscard]] bool done() const noexcept {
    return !handle_ || handle_.done();
  }
  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return handle_;
  }
  [[nodiscard]] const T& value() const noexcept {
    return handle_.promise().value;
  }

 private:
  explicit SimTask(std::coroutine_handle<promise_type> handle) noexcept
      : handle_(handle) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] SimTask<void> {
 public:
  struct promise_type : detail::PromiseBase {
    SimTask get_return_object() noexcept {
      return SimTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  SimTask() noexcept = default;
  SimTask(SimTask&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { destroy(); }

  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) const noexcept {
      child.promise().continuation = parent;
      return child;
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

  void resume() const { handle_.resume(); }
  [[nodiscard]] bool done() const noexcept {
    return !handle_ || handle_.done();
  }
  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return handle_;
  }

 private:
  explicit SimTask(std::coroutine_handle<promise_type> handle) noexcept
      : handle_(handle) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace lssim

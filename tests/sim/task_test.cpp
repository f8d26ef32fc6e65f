#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "machine/system.hpp"
#include "workloads/oltp.hpp"
#include "workloads/stencil.hpp"

namespace lssim {
namespace {

// The frame-pool tests count frames, so the coroutines they create are
// noinline: that keeps clang from eliding their frames into the caller.
[[gnu::noinline]] SimTask<int> answer() { co_return 42; }

SimTask<int> add(int a, int b) { co_return a + b; }

[[gnu::noinline]] SimTask<int> nested_sum(int depth) {
  if (depth == 0) {
    co_return 0;
  }
  const int below = co_await nested_sum(depth - 1);
  co_return below + depth;
}

SimTask<void> record(std::vector<int>& log, int value) {
  log.push_back(value);
  co_return;
}

SimTask<void> sequence(std::vector<int>& log) {
  co_await record(log, 1);
  co_await record(log, 2);
  const int v = co_await add(20, 22);
  log.push_back(v);
}

TEST(SimTask, LazyStart) {
  std::vector<int> log;
  SimTask<void> task = record(log, 7);
  EXPECT_TRUE(log.empty());  // Not started until resumed/awaited.
  task.resume();
  EXPECT_EQ(log, std::vector<int>({7}));
  EXPECT_TRUE(task.done());
}

TEST(SimTask, ValueTask) {
  SimTask<int> task = answer();
  task.resume();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(task.value(), 42);
}

TEST(SimTask, NestedAwaitChainsContinuations) {
  std::vector<int> log;
  SimTask<void> task = sequence(log);
  task.resume();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(log, std::vector<int>({1, 2, 42}));
}

TEST(SimTask, DeepRecursionViaSymmetricTransfer) {
  // 10k nested co_awaits must not overflow the host stack.
  SimTask<int> task = nested_sum(10000);
  task.resume();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(task.value(), 10000 * 10001 / 2);
}

TEST(SimTask, MoveTransfersOwnership) {
  SimTask<int> a = answer();
  SimTask<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.resume();
  EXPECT_EQ(b.value(), 42);
}

TEST(SimTask, DefaultConstructedIsDone) {
  SimTask<void> task;
  EXPECT_FALSE(task.valid());
  EXPECT_TRUE(task.done());
}

TEST(SimTask, DestroyWithoutRunningDoesNotLeak) {
  // Destroying a never-started coroutine must release its frame. A pooled
  // frame is invisible to LeakSanitizer, so the live-frame count is the
  // check (FramePool.LiveFramesReturnToStart covers more shapes).
  const std::int64_t live = frame_pool_stats().live;
  { SimTask<int> task = answer(); }
  EXPECT_EQ(frame_pool_stats().live, live);
}

struct SuspendingAwaiter {
  bool* flagged;
  std::coroutine_handle<>* out;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    *flagged = true;
    *out = h;
  }
  int await_resume() const noexcept { return 5; }
};

[[gnu::noinline]] SimTask<void> waits_outside(bool* flagged,
                                               std::coroutine_handle<>* out,
                                               int* result) {
  *result = co_await SuspendingAwaiter{flagged, out};
}

TEST(SimTask, ExternalAwaiterSuspendAndResume) {
  bool flagged = false;
  std::coroutine_handle<> handle;
  int result = 0;
  SimTask<void> task = waits_outside(&flagged, &handle, &result);
  task.resume();
  EXPECT_TRUE(flagged);
  EXPECT_FALSE(task.done());
  handle.resume();  // Scheduler-style external resumption.
  EXPECT_TRUE(task.done());
  EXPECT_EQ(result, 5);
}

[[gnu::noinline]] SimTask<void> outer_with_inner_suspend(
    bool* flagged, std::coroutine_handle<>* out, std::vector<int>& log) {
  log.push_back(1);
  int v = 0;
  {
    // The inner coroutine suspends on the external awaiter; resuming the
    // stored handle must propagate completion through the continuation
    // chain back into this coroutine.
    SimTask<void> inner = waits_outside(flagged, out, &v);
    co_await inner;
  }
  log.push_back(v);
}

TEST(SimTask, SuspensionInsideNestedTaskResumesChain) {
  bool flagged = false;
  std::coroutine_handle<> handle;
  std::vector<int> log;
  SimTask<void> task = outer_with_inner_suspend(&flagged, &handle, log);
  task.resume();
  EXPECT_EQ(log, std::vector<int>({1}));
  EXPECT_FALSE(task.done());
  handle.resume();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(log, std::vector<int>({1, 5}));
}

// --- Frame pool -----------------------------------------------------------

[[gnu::noinline]] SimTask<int> big_frame() {
  // The array lives across a suspension, so it is part of the frame,
  // which is then larger than the largest pooled size class.
  std::array<std::uint8_t, 8192> payload{};
  payload[7] = 3;
  co_await std::suspend_always{};
  co_return payload[7];
}

TEST(FramePool, FreedFrameIsReusedBySameSizeClass) {
  { SimTask<int> warm = answer(); }  // The pool now holds one such frame.
  const std::uint64_t heap = frame_pool_stats().heap;
  void* first = nullptr;
  {
    SimTask<int> task = answer();
    first = task.handle().address();
  }
  SimTask<int> again = answer();
  EXPECT_EQ(again.handle().address(), first);
  EXPECT_EQ(frame_pool_stats().heap, heap);
  again.resume();
  EXPECT_EQ(again.value(), 42);
}

TEST(FramePool, OversizeFrameBypassesPool) {
  const std::uint64_t heap = frame_pool_stats().heap;
  for (int i = 0; i < 3; ++i) {
    SimTask<int> task = big_frame();
    task.resume();
    EXPECT_FALSE(task.done());
  }
  // A pooled size class would have reused the first frame twice.
  EXPECT_EQ(frame_pool_stats().heap, heap + 3);
}

TEST(FramePool, FrameCreatedOnAnotherThreadIsDestroyedHere) {
  bool flagged = false;
  std::coroutine_handle<> handle;
  std::vector<int> log;
  SimTask<void> task;
  std::thread([&] {
    // Two frames, suspended mid-chain, then handed to the main thread.
    task = outer_with_inner_suspend(&flagged, &handle, log);
    task.resume();
  }).join();
  EXPECT_TRUE(flagged);
  EXPECT_EQ(log, std::vector<int>({1}));

  const std::int64_t live = frame_pool_stats().live;
  task = SimTask<void>{};
  // The frames were counted live on the worker and released here.
  EXPECT_EQ(frame_pool_stats().live, live - 2);

  // The reverse direction: a frame made here, released on a thread
  // whose pool is torn down when it exits.
  SimTask<int> value = answer();
  std::thread([&] {
    value.resume();
    EXPECT_EQ(value.value(), 42);
    value = SimTask<int>{};
  }).join();
  EXPECT_EQ(frame_pool_stats().live, live - 1);
}

std::unique_ptr<System> small_oltp() {
  MachineConfig cfg = MachineConfig::oltp_default(ProtocolKind::kLs);
  cfg.l1 = CacheConfig{8 * 1024, 2, 32};
  cfg.l2 = CacheConfig{32 * 1024, 1, 32};
  auto sys = std::make_unique<System>(cfg);
  OltpParams params;
  params.accounts = 16384;
  params.hot_accounts = 2048;
  params.txns_per_proc = 100;
  build_oltp(*sys, params);
  return sys;
}

std::unique_ptr<System> small_stencil() {
  auto sys = std::make_unique<System>(
      MachineConfig::scientific_default(ProtocolKind::kLs, 16));
  build_stencil(*sys,
                StencilParams{.width = 32, .height = 32, .sweeps = 2});
  return sys;
}

void expect_second_run_takes_no_heap_frame(
    std::unique_ptr<System> (*make)()) {
  auto first = make();
  first->run();
  const Cycles exec_time = first->exec_time();
  first.reset();

  const std::uint64_t heap = frame_pool_stats().heap;
  auto second = make();
  second->run();
  EXPECT_EQ(second->exec_time(), exec_time);
  second.reset();
  EXPECT_EQ(frame_pool_stats().heap, heap);
}

TEST(FramePool, SecondIdenticalOltpRunTakesNoHeapFrame) {
  expect_second_run_takes_no_heap_frame(small_oltp);
}

TEST(FramePool, SecondIdenticalStencilRunTakesNoHeapFrame) {
  expect_second_run_takes_no_heap_frame(small_stencil);
}

TEST(FramePool, LiveFramesReturnToStart) {
  const std::int64_t live = frame_pool_stats().live;
  { SimTask<int> never_started = nested_sum(3); }
  EXPECT_EQ(frame_pool_stats().live, live);
  {
    SimTask<int> finished = nested_sum(50);
    finished.resume();
    EXPECT_TRUE(finished.done());
  }
  EXPECT_EQ(frame_pool_stats().live, live);
  {
    bool flagged = false;
    std::coroutine_handle<> handle;
    std::vector<int> log;
    SimTask<void> suspended =
        outer_with_inner_suspend(&flagged, &handle, log);
    suspended.resume();
    EXPECT_EQ(frame_pool_stats().live, live + 2);  // Outer and inner.
  }
  EXPECT_EQ(frame_pool_stats().live, live);
  {
    std::unique_ptr<System> unstarted = small_oltp();
    EXPECT_GT(frame_pool_stats().live, live);
  }
  EXPECT_EQ(frame_pool_stats().live, live);
  {
    std::unique_ptr<System> ran = small_stencil();
    ran->run();
  }
  EXPECT_EQ(frame_pool_stats().live, live);
}

}  // namespace
}  // namespace lssim

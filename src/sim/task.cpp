#include "sim/task.hpp"

namespace lssim::detail {
namespace {

// Returns the thread's pooled frames to the heap when the thread exits.
struct FramePoolReaper {
  FramePoolReaper() = default;
  FramePoolReaper(const FramePoolReaper&) = delete;
  FramePoolReaper& operator=(const FramePoolReaper&) = delete;
  ~FramePoolReaper() {
    FramePool& pool = frame_pool;
    pool.phase = FramePool::Phase::kRetired;
    for (std::size_t cls = 0; cls < kFrameClasses; ++cls) {
      const std::size_t bytes = (cls + 1) * kFrameGranule;
      FreeFrame* frame = pool.free[cls];
      while (frame != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(frame, bytes);
        FreeFrame* next = frame->next;
        ::operator delete(frame, bytes);
        frame = next;
      }
      pool.free[cls] = nullptr;
    }
  }
};

}  // namespace

bool frame_pool_activate() noexcept {
  FramePool& pool = frame_pool;
  if (pool.phase == FramePool::Phase::kRetired) {
    return false;
  }
  // Constructed on the thread's first pooled release; its destructor runs
  // at thread exit.
  thread_local FramePoolReaper reaper;
  pool.phase = FramePool::Phase::kActive;
  return true;
}

}  // namespace lssim::detail

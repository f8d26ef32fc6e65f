// Sense-reversing centralized barrier over simulated shared memory.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/processor.hpp"
#include "mem/shared_heap.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace lssim {

class Barrier {
 public:
  Barrier(SharedHeap& heap, int participants)
      : count_addr_(heap.alloc(4, 4)),
        sense_addr_(heap.alloc(4, 4)),
        participants_(participants),
        local_sense_(static_cast<std::size_t>(kMaxNodes), 0) {}

  /// Blocks (spins) until all `participants` processors arrive.
  [[nodiscard]] SimTask<void> wait(Processor& proc) {
    std::uint32_t& sense = local_sense_[proc.id()];
    sense ^= 1u;
    const std::uint64_t arrived = co_await proc.fetch_add(count_addr_, 1) + 1;
    if (arrived == static_cast<std::uint64_t>(participants_)) {
      co_await proc.write(count_addr_, 0);
      co_await proc.write(sense_addr_, sense);
    } else {
      co_await proc.spin_until(sense_addr_, sense, kSpinCycles, kSpinCycles);
    }
  }

 private:
  static constexpr Cycles kSpinCycles = 10;
  Addr count_addr_;
  Addr sense_addr_;
  int participants_;
  std::vector<std::uint32_t> local_sense_;  // Host-side per-processor state.
};

}  // namespace lssim

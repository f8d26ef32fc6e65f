// Allocation of *simulated* shared memory and typed views over it.
//
// Workload data structures live in the simulated address space so that
// every access to them goes through the modelled cache hierarchy and
// coherence protocol. The heap hands out simulated addresses only; actual
// bytes live in AddressSpace's lazily materialised chunks.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/types.hpp"

namespace lssim {

/// Bump allocator over the simulated address space.
///
/// Two placement policies:
///  * alloc()          — contiguous virtual layout; pages interleave
///                       round-robin across homes (the default placement
///                       the paper assumes).
///  * alloc_on_node(n) — placed on pages whose home is node n, for data
///                       a workload wants node-local (stacks, partitions).
class SharedHeap {
 public:
  explicit SharedHeap(AddressSpace& space);

  [[nodiscard]] Addr alloc(std::uint64_t bytes, std::uint32_t align = 8);
  [[nodiscard]] Addr alloc_on_node(NodeId node, std::uint64_t bytes,
                                   std::uint32_t align = 8);

  /// Total bytes handed out (diagnostics).
  [[nodiscard]] std::uint64_t bytes_allocated() const noexcept {
    return bytes_allocated_;
  }

  [[nodiscard]] AddressSpace& space() noexcept { return space_; }

 private:
  AddressSpace& space_;
  Addr global_cursor_;
  std::vector<Addr> node_cursor_;       // next free addr in node arena
  std::vector<Addr> node_arena_limit_;  // end of the current node page
  std::uint64_t bytes_allocated_ = 0;
};

/// Fixed-size array of POD elements in simulated memory. T must be a
/// trivially copyable type of 1/2/4/8 bytes; elements are naturally
/// aligned so they never straddle a cache block or page boundary.
template <typename T>
class SharedArray {
  static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                    sizeof(T) == 8,
                "element must be 1/2/4/8 bytes");

 public:
  SharedArray() = default;
  SharedArray(SharedHeap& heap, std::uint64_t count,
              std::uint32_t align = alignof(T))
      : base_(heap.alloc(count * sizeof(T),
                         std::max<std::uint32_t>(align, sizeof(T)))),
        count_(count) {}

  [[nodiscard]] static SharedArray on_node(SharedHeap& heap, NodeId node,
                                           std::uint64_t count,
                                           std::uint32_t align = alignof(T)) {
    SharedArray array;
    array.base_ = heap.alloc_on_node(
        node, count * sizeof(T), std::max<std::uint32_t>(align, sizeof(T)));
    array.count_ = count;
    return array;
  }

  [[nodiscard]] Addr addr(std::uint64_t index) const noexcept {
    assert(index < count_);
    return base_ + index * sizeof(T);
  }
  [[nodiscard]] Addr base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }
  [[nodiscard]] static constexpr unsigned element_bytes() noexcept {
    return sizeof(T);
  }

 private:
  Addr base_ = 0;
  std::uint64_t count_ = 0;
};

/// Bit-pattern conversions for storing floating point values through the
/// integer load/store interface.
[[nodiscard]] inline std::uint64_t to_bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}
[[nodiscard]] inline double from_bits(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

}  // namespace lssim

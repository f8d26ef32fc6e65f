// Simulated physical address space.
//
// Pages are assigned home nodes round-robin (paper §4.2: "physical memory
// pages are distributed in round-robin fashion among the nodes"). The
// page size sets only that placement: data is stored in 64-byte chunks,
// materialised on the first store to them, in the flat block table the
// directory and the load-store oracle use. A workload that touches one
// word in each of many pages (OLTP's account table) then costs a chunk
// per word, not a page. A load of an untouched chunk reads zero and
// materialises nothing.
//
// Accesses are naturally aligned 1, 2, 4 or 8 bytes (aligned()), so none
// crosses a chunk; MemorySystem::access rejects any other access before
// it gets here.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/block_table.hpp"
#include "sim/types.hpp"

namespace lssim {

class AddressSpace {
 public:
  /// Storage grain, in bytes.
  static constexpr Addr kChunkBytes = 64;

  AddressSpace(int num_nodes, std::uint32_t page_bytes);

  /// Home node of the page containing `addr`.
  [[nodiscard]] NodeId home_of(Addr addr) const noexcept {
    return static_cast<NodeId>((addr >> page_shift_) %
                               static_cast<Addr>(num_nodes_));
  }

  /// True for the accesses memory holds: 1, 2, 4 or 8 bytes at a
  /// multiple of the size (so none crosses a chunk).
  [[nodiscard]] static constexpr bool aligned(Addr addr,
                                              unsigned size) noexcept {
    return (size == 1 || size == 2 || size == 4 || size == 8) &&
           (addr & (size - 1)) == 0;
  }

  /// Loads `size` bytes (1, 2, 4 or 8, at a multiple of `size`) as a
  /// little-endian integer. Untouched memory reads as zero.
  [[nodiscard]] std::uint64_t load(Addr addr, unsigned size) const noexcept;

  /// Stores the low `size` bytes of `value` at `addr`.
  void store(Addr addr, unsigned size, std::uint64_t value);

  [[nodiscard]] std::uint32_t page_bytes() const noexcept {
    return page_bytes_;
  }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }

  /// Number of chunks materialised so far (for tests / footprint reports).
  [[nodiscard]] std::size_t resident_chunks() const noexcept {
    return chunks_.size();
  }

 private:
  using Chunk = std::array<std::byte, kChunkBytes>;
  static constexpr Addr kOffsetMask = kChunkBytes - 1;

  int num_nodes_;
  std::uint32_t page_bytes_;
  // page_bytes_ is a validated power of two: home_of is a shift.
  std::uint32_t page_shift_;
  BlockTable<Chunk> chunks_;
};

}  // namespace lssim

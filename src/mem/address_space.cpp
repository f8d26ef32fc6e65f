#include "mem/address_space.hpp"

#include <cassert>
#include <cstring>

namespace lssim {
namespace {

// Fixed-size copies: each compiles to one move, not a library call.
template <typename T>
[[nodiscard]] std::uint64_t read(const std::byte* p) noexcept {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

template <typename T>
void write(std::byte* p, std::uint64_t value) noexcept {
  const auto narrow = static_cast<T>(value);
  std::memcpy(p, &narrow, sizeof(T));
}

}  // namespace

AddressSpace::AddressSpace(int num_nodes, std::uint32_t page_bytes)
    : num_nodes_(num_nodes),
      page_bytes_(page_bytes),
      page_shift_(static_cast<std::uint32_t>(std::countr_zero(page_bytes))) {
  assert(num_nodes >= 1);
  assert(page_bytes >= 8);
  assert(std::has_single_bit(page_bytes));
}

std::uint64_t AddressSpace::load(Addr addr, unsigned size) const noexcept {
  assert(aligned(addr, size));
  const Chunk* chunk = chunks_.find(addr & ~kOffsetMask);
  if (chunk == nullptr) {
    return 0;
  }
  const std::byte* p = chunk->data() + (addr & kOffsetMask);
  switch (size) {
    case 1:
      return read<std::uint8_t>(p);
    case 2:
      return read<std::uint16_t>(p);
    case 4:
      return read<std::uint32_t>(p);
    default:
      return read<std::uint64_t>(p);
  }
}

void AddressSpace::store(Addr addr, unsigned size, std::uint64_t value) {
  assert(aligned(addr, size));
  std::byte* p = chunks_.entry(addr & ~kOffsetMask).data() +
                 (addr & kOffsetMask);
  switch (size) {
    case 1:
      write<std::uint8_t>(p, value);
      break;
    case 2:
      write<std::uint16_t>(p, value);
      break;
    case 4:
      write<std::uint32_t>(p, value);
      break;
    default:
      write<std::uint64_t>(p, value);
      break;
  }
}

}  // namespace lssim

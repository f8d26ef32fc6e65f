#include "cache/cache.hpp"

#include <cassert>

namespace lssim {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      num_sets_(config.num_sets()),
      set_mask_(num_sets_ - 1),
      block_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.block_bytes))),
      block_mask_(~static_cast<Addr>(config.block_bytes - 1)),
      lru_live_(config.assoc > 1) {
  assert(num_sets_ > 0);
  assert(std::has_single_bit(config.block_bytes));
  assert(std::has_single_bit(static_cast<std::uint64_t>(num_sets_)));
  lines_.resize(num_sets_ * config_.assoc);
  if (lru_live_) {
    last_use_.resize(lines_.size());
  }
}

std::size_t Cache::valid_lines() const noexcept {
  std::size_t count = 0;
  for (const auto& line : lines_) {
    if (line.valid()) ++count;
  }
  return count;
}

}  // namespace lssim

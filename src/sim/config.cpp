#include "sim/config.hpp"

#include <bit>

#include "sim/machine_fields.hpp"

namespace lssim {

MachineConfig MachineConfig::scientific_default(ProtocolKind kind,
                                                int nodes) {
  MachineConfig config;
  config.num_nodes = nodes;
  config.l1 = CacheConfig{4 * 1024, 1, 16};
  config.l2 = CacheConfig{64 * 1024, 1, 16};
  config.protocol.kind = kind;
  return config;
}

MachineConfig MachineConfig::oltp_default(ProtocolKind kind, int nodes) {
  MachineConfig config;
  config.num_nodes = nodes;
  config.l1 = CacheConfig{64 * 1024, 2, 32};
  config.l2 = CacheConfig{512 * 1024, 1, 32};
  config.protocol.kind = kind;
  return config;
}

std::string MachineField::range_problem(std::uint64_t value) const {
  if (value >= lo && value <= hi) return {};
  std::string problem = std::string(key) + " must be in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]";
  if (why != nullptr) problem += std::string(" (") + why + ")";
  return problem;
}

const MachineField* find_machine_field(std::string_view key) {
  for (const MachineField& field : kMachineFields) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

std::string MachineConfig::validate() const {
  // Per-field ranges first: the rules below divide by cache geometry.
  for (const MachineField& field : kMachineFields) {
    const std::uint64_t value = field.get(*this);
    if (value < field.lo || value > field.hi) {
      return field.range_problem(value);
    }
  }
  if (directory_scheme == DirectoryKind::kFullMap &&
      num_nodes > kFullMapNodes) {
    return "full-map directory supports at most 64 nodes (use the "
           "limited-ptr, coarse or sparse organisation)";
  }
  if (directory_scheme == DirectoryKind::kCoarseVector &&
      directory_region != 0 &&
      static_cast<int>(directory_region) * kFullMapNodes < num_nodes) {
    return "directory_region too small: 64 region bits must cover every "
           "node (region * 64 >= num_nodes)";
  }
  if (classify_false_sharing && num_nodes > kFullMapNodes) {
    return "classify_false_sharing tracks per-node word masks in 64-bit "
           "words and requires num_nodes <= 64";
  }
  if (!std::has_single_bit(page_bytes)) {
    return "page_bytes must be a power of two";
  }
  for (const CacheConfig* cache : {&l1, &l2}) {
    // Widened: a 32-bit assoc * block product can wrap to zero.
    if (cache->size_bytes %
            (std::uint64_t{cache->assoc} * cache->block_bytes) !=
        0) {
      return "cache size must be divisible by assoc * block size";
    }
    if (!std::has_single_bit(cache->block_bytes) ||
        !std::has_single_bit(cache->num_sets())) {
      return "cache block size and set count must be powers of two";
    }
  }
  if (l1.block_bytes != l2.block_bytes) {
    return "L1 and L2 must use the same block size (inclusive hierarchy)";
  }
  if (l2.size_bytes < l1.size_bytes) {
    return "L2 must be at least as large as L1 (inclusive hierarchy)";
  }
  if (!std::has_single_bit(word_bytes) || word_bytes > l1.block_bytes) {
    return "word_bytes must be a power of two no larger than a block";
  }
  return {};
}

}  // namespace lssim

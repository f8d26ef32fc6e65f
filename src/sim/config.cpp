#include "sim/config.hpp"

#include <bit>

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

std::string MachineConfig::validate() const {
  if (num_nodes < 1 || num_nodes > kMaxNodes) {
    return "num_nodes must be in [1, 256]";
  }
  if (directory_scheme == DirectoryKind::kFullMap &&
      num_nodes > kFullMapNodes) {
    return "full-map directory supports at most 64 nodes (use the "
           "limited-ptr, coarse or sparse organisation)";
  }
  if (directory_scheme == DirectoryKind::kLimitedPtr &&
      (directory_pointers < 1 || directory_pointers > 7)) {
    return "directory_pointers must be in [1, 7] (Dir_iB pointers share "
           "the entry's sharer word with a control byte)";
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
  if (!std::has_single_bit(page_bytes) || page_bytes < 8) {
    return "page_bytes must be a power of two of at least 8 (the widest "
           "access)";
  }
  for (const CacheConfig* cache : {&l1, &l2}) {
    if (cache->size_bytes == 0 || cache->assoc == 0 ||
        cache->block_bytes == 0) {
      return "cache geometry fields must be nonzero";
    }
    if (!std::has_single_bit(cache->block_bytes) ||
        !std::has_single_bit(cache->num_sets())) {
      return "cache block size and set count must be powers of two";
    }
    if (cache->size_bytes % (cache->assoc * cache->block_bytes) != 0) {
      return "cache size must be divisible by assoc * block size";
    }
    if (cache->block_bytes > 256) {
      return "block size above 256 bytes is not supported";
    }
  }
  if (l1.block_bytes != l2.block_bytes) {
    return "L1 and L2 must use the same block size (inclusive hierarchy)";
  }
  if (l2.size_bytes < l1.size_bytes) {
    return "L2 must be at least as large as L1 (inclusive hierarchy)";
  }
  if (word_bytes == 0 || !std::has_single_bit(word_bytes) ||
      word_bytes > l1.block_bytes) {
    return "word_bytes must be a power of two no larger than a block";
  }
  if (protocol.tag_hysteresis == 0 || protocol.detag_hysteresis == 0) {
    return "hysteresis depths must be at least 1";
  }
  if (protocol.tag_hysteresis > 7 || protocol.detag_hysteresis > 7) {
    return "hysteresis depths above 7 are not supported (3-bit progress "
           "counters in DirEntry)";
  }
  return {};
}

}  // namespace lssim

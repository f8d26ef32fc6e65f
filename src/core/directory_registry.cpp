#include "core/directory_registry.hpp"

#include <cassert>

#include "core/directories/coarse_vector_directory.hpp"
#include "core/directories/full_map_directory.hpp"
#include "core/directories/limited_ptr_directory.hpp"
#include "core/directories/sparse_directory.hpp"

namespace lssim {
namespace {

std::unique_ptr<DirectoryPolicy> make_full_map(const MachineConfig&) {
  return std::make_unique<FullMapDirectory>();
}

std::unique_ptr<DirectoryPolicy> make_limited_ptr(
    const MachineConfig& config) {
  return std::make_unique<LimitedPtrDirectory>(config.directory_pointers,
                                               config.num_nodes);
}

std::unique_ptr<DirectoryPolicy> make_coarse(const MachineConfig& config) {
  return std::make_unique<CoarseVectorDirectory>(config.directory_region,
                                                 config.num_nodes);
}

std::unique_ptr<DirectoryPolicy> make_sparse(const MachineConfig& config) {
  return std::make_unique<SparseDirectory>(config.directory_entries,
                                           config.num_nodes);
}

// THE registration site: one row per organisation, in DirectoryKind
// order.
const DirectoryInfo kRegistry[kNumDirectoryKinds] = {
    {DirectoryKind::kFullMap,
     "exact presence bitmap, one bit per node (<= 64 nodes)", &make_full_map},
    {DirectoryKind::kLimitedPtr,
     "Dir_iB limited pointers (--dir-pointers), broadcast on overflow",
     &make_limited_ptr},
    {DirectoryKind::kCoarseVector,
     "coarse bit-vector, one bit per --dir-region consecutive nodes",
     &make_coarse},
    {DirectoryKind::kSparse,
     "directory cache bounded to --dir-entries entries, evictions "
     "force invalidations", &make_sparse},
};

}  // namespace

std::span<const DirectoryInfo> registered_directories() { return kRegistry; }

const DirectoryInfo& directory_info(DirectoryKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  assert(index < std::size(kRegistry) && kRegistry[index].kind == kind);
  return kRegistry[index];
}

std::unique_ptr<DirectoryPolicy> make_directory_policy(
    const MachineConfig& config) {
  return directory_info(config.directory_scheme).make(config);
}

}  // namespace lssim

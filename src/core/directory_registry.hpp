// Kind-keyed directory-organisation registry: the factory and one-line
// summary of each DirectoryPolicy (src/core/directories/). Names and
// aliases live in kDirectoryNames (sim/config.hpp). It mirrors
// core/protocol_registry.hpp — the two registries are the machine's two
// orthogonal axes (what the caches do x what the home tracks).
//
// Adding an organisation:
//   1. add the enum value and its kDirectoryNames row in sim/config.hpp,
//   2. write the DirectoryPolicy under src/core/directories/,
//   3. add its registration row in directory_registry.cpp.
// See docs/PROTOCOL.md, "Adding a directory organization".
#pragma once

#include <memory>
#include <span>

#include "core/directory_policy.hpp"
#include "sim/config.hpp"

namespace lssim {

struct DirectoryInfo {
  DirectoryKind kind;
  const char* summary;  ///< One-liner for --help and docs.
  std::unique_ptr<DirectoryPolicy> (*make)(const MachineConfig& config);
};

/// All registered organisations, in DirectoryKind order.
[[nodiscard]] std::span<const DirectoryInfo> registered_directories();

/// Registry entry for `kind` (every kind is registered).
[[nodiscard]] const DirectoryInfo& directory_info(DirectoryKind kind);

/// Constructs the organisation for `config.directory_scheme`.
[[nodiscard]] std::unique_ptr<DirectoryPolicy> make_directory_policy(
    const MachineConfig& config);

}  // namespace lssim

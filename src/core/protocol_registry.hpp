// Kind-keyed protocol registry: the factory and one-line summary of each
// protocol's CoherencePolicy (src/core/policies/). Names and aliases live
// in kProtocolNames (sim/config.hpp); every name parse goes through it.
//
// Adding a protocol:
//   1. add the enum value and its kProtocolNames row in sim/config.hpp,
//   2. write the CoherencePolicy under src/core/policies/,
//   3. add its registration row in protocol_registry.cpp.
// Driver flags, manifests, repro files and reports need nothing else.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/coherence_policy.hpp"
#include "sim/config.hpp"

namespace lssim {

struct ProtocolInfo {
  ProtocolKind kind;
  const char* summary;  ///< One-liner for --help and docs.
  std::unique_ptr<CoherencePolicy> (*make)(const MachineConfig& config);
};

/// All registered protocols, in ProtocolKind order.
[[nodiscard]] std::span<const ProtocolInfo> registered_protocols();

/// Registry entry for `kind` (every kind is registered).
[[nodiscard]] const ProtocolInfo& protocol_info(ProtocolKind kind);

/// Every protocol kind, in table order (e.g. for --compare).
[[nodiscard]] inline std::vector<ProtocolKind> all_protocol_kinds() {
  return kProtocolNames.all();
}

/// Constructs the policy for `config.protocol.kind`.
[[nodiscard]] std::unique_ptr<CoherencePolicy> make_policy(
    const MachineConfig& config);

}  // namespace lssim

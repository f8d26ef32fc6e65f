// Directory/cache agreement for tests: one full sweep of the protocol
// invariant checker (src/check/invariants.hpp) over a MemorySystem.
#pragma once

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/protocol.hpp"

namespace lssim {

/// Messages of every violation a full InvariantChecker sweep finds in
/// `ms` — SWMR, directory/cache agreement, hysteresis bounds, stale
/// entry fields, inclusion — empty when the machine is coherent.
inline std::vector<std::string> coherence_violations(
    const MemorySystem& ms) {
  check::InvariantChecker checker;
  checker.final_check(ms);
  return checker.messages();
}

/// What coherence_violations returns for a coherent machine; compare
/// against it so a failure prints the messages.
inline const std::vector<std::string> kNoViolations;

}  // namespace lssim

// Replayable repro traces for the coherence verification subsystem.
//
// A ReproTrace is a short, explicit access sequence plus the machine
// shape it must run under: exactly what the exhaustive explorer and the
// fuzzer (src/check/fuzzer.hpp) hand back when an invariant breaks, and
// what the shrinker minimises. The text format is deliberately
// human-editable — a shrunk repro is a bug report first and a regression
// test second (tests/check/repros/*.repro) — and versioned so old repros
// keep replaying as the format grows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace lssim::check {

/// One access of a repro trace. Mirrors AccessRequest minus the fields
/// that do not affect protocol state (stream tag, access site).
struct ReproAccess {
  NodeId node = 0;
  MemOpKind op = MemOpKind::kRead;
  Addr addr = 0;
  std::uint8_t size = 8;
  std::uint64_t wdata = 0;
  std::uint64_t expected = 0;  ///< CAS expected value.

  [[nodiscard]] bool operator==(const ReproAccess&) const = default;
};

/// A minimal replayable scenario: machine shape + access sequence. The
/// embedded MachineConfig carries everything protocol-relevant (node
/// count, cache geometry, protocol knobs, directory scheme); fields the
/// checker does not exercise (latencies, telemetry) stay at defaults.
struct ReproTrace {
  MachineConfig machine;
  std::vector<ReproAccess> accesses;
};

/// Mnemonics of the text format's access lines.
inline constexpr NameTable<MemOpKind, 5> kReproOpNames{
    "op",
    {{
        {MemOpKind::kRead, "R", ""},
        {MemOpKind::kWrite, "W", ""},
        {MemOpKind::kSwap, "SWAP", ""},
        {MemOpKind::kFetchAdd, "FADD", ""},
        {MemOpKind::kCas, "CAS", ""},
    }}};

/// Writes the versioned text format:
///
///   lssim-repro v1
///   protocol LS
///   nodes 4
///   l1 32 1 16
///   l2 64 1 16
///   default_tagged 0
///   tag_hysteresis 1
///   detag_hysteresis 1
///   keep_tag_on_lone_write 0
///   ad_detag_on_replacement 1
///   directory full-map 4
///   access 0 R 0x0 8 0x0
///   access 1 W 0x40 8 0xdead
///   end
void save_repro(std::ostream& os, const ReproTrace& trace);

/// Parses the text format; throws std::runtime_error naming the line and
/// field on malformed input, an unsupported version, an out-of-range
/// value, a trailing token, an access node at or above `nodes`, or a
/// machine MachineConfig::validate() rejects.
[[nodiscard]] ReproTrace load_repro(std::istream& is);

/// Convenience wrappers over save/load. load_repro_file throws
/// std::runtime_error when the file cannot be opened.
void save_repro_file(const std::string& path, const ReproTrace& trace);
[[nodiscard]] ReproTrace load_repro_file(const std::string& path);

/// One access as a text-format line (diagnostics, failure messages).
[[nodiscard]] std::string to_string(const ReproAccess& access);

}  // namespace lssim::check

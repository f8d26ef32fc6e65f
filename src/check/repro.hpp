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
/// embedded MachineConfig is saved whole (every kMachineFields row);
/// telemetry and check_invariants, which are run modes, are not.
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

/// Writes the versioned text format: the header, one `<key> <value>`
/// line per kMachineFields row (sim/machine_fields.hpp; names canonical,
/// flags 0/1, numbers decimal), the accesses (hex addresses and data),
/// then `end`:
///
///   lssim-repro v2
///   protocol LS
///   ...
///   l1.size_bytes 32
///   ...
///   access 1 W 0x40 8 0xdead
///   end
///
/// Version-1 files still load. Their machine lines are v2 lines but for
/// five that group fields: `nodes N`, `l1 SIZE ASSOC BLOCK`, `l2 ...`,
/// `directory NAME POINTERS [REGION ENTRIES]` and
/// `interconnect NAME [ARBITRATION]`. Absent fields keep their defaults.
void save_repro(std::ostream& os, const ReproTrace& trace);

/// Parses either version; throws std::runtime_error naming the line and
/// field on malformed input, an unsupported version, a value its field
/// cannot hold, a trailing token, an access node at or above
/// `num_nodes`, or a machine MachineConfig::validate() rejects.
[[nodiscard]] ReproTrace load_repro(std::istream& is);

/// Convenience wrappers over save/load. load_repro_file throws
/// std::runtime_error when the file cannot be opened.
void save_repro_file(const std::string& path, const ReproTrace& trace);
[[nodiscard]] ReproTrace load_repro_file(const std::string& path);

/// One access as a text-format line (diagnostics, failure messages).
[[nodiscard]] std::string to_string(const ReproAccess& access);

}  // namespace lssim::check

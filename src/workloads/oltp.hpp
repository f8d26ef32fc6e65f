// OLTP: synthetic TPC-B-style transaction processing workload
// (paper §4.1, §5.4).
//
// Substitution for the paper's MySQL-on-SparcLinux setup (see DESIGN.md):
// a bank schema (branches / tellers / accounts / history), a two-level
// index whose nodes are read-shared and occasionally split, a per-resource
// lock manager, buffer-pool metadata, and an "operating system" layer
// (run-queue lock, usage accounting, load balancing). Accesses are tagged
// app / library / os so Table 2's three-way split can be reproduced.
//
// The sharing mix is tuned for the regime the paper reports: many
// capacity/conflict misses to shared data (the account table exceeds L2),
// ~1.4 invalidations per global write (balances read-shared by lookup
// transactions), and load-store sequences of which only about half are
// migratory.
#pragma once

#include <cstdint>
#include <string>

#include "machine/system.hpp"

namespace lssim {

struct OltpParams {
  int branches = 40;  ///< Paper: TPC-B with 40 branches.
  int tellers_per_branch = 10;
  /// Paper: ~600 MB of database data; 16 MB of account records is the
  /// scaled-down equivalent — far beyond L2, so account accesses miss
  /// for capacity reasons like the paper's workload.
  int accounts = 1 << 20;
  int txns_per_proc = 3000;
  double lookup_fraction = 0.35;  ///< Read-only balance queries.
  /// TPC-B terminals are bound to a home branch: this fraction of
  /// transactions uses a branch local to the issuing processor. The
  /// remainder crosses processors (the migratory share of Table 2).
  double home_branch_fraction = 0.85;
  double hot_fraction = 0.7;  ///< Probability of hitting the hot set.
  /// Hot accounts are partitioned per processor (connection affinity)
  /// and drawn with a skew (see zipf_exponent): the popular head is
  /// reused across transactions but its span far exceeds the cache, so
  /// hot read-modify-writes are same-processor load-store sequences
  /// broken by capacity evictions — LS's target pattern, invisible to
  /// migratory detection.
  int hot_accounts = 65536;  ///< Per-processor hot span.
  double zipf_exponent = 2.5;  ///< hot pick = span * u^zipf (u uniform).
  int split_interval = 64;     ///< Index-node write every Nth update.
  int balance_interval = 32;   ///< OS load-balance scan every Nth txn.
  Cycles think_cycles = 700;
  std::uint64_t seed = 7;

  /// Empty when these parameters fit a `procs`-processor machine,
  /// otherwise a description of the problem: every processor needs a
  /// home branch (branches >= procs), and every processor's hot span
  /// must lie inside the account table (procs x hot_accounts <=
  /// accounts).
  [[nodiscard]] std::string validate(int procs) const;
};

/// Allocates the database and OS structures on `sys` and spawns one
/// worker per processor. Throws std::invalid_argument when `params` do
/// not fit the machine (OltpParams::validate).
void build_oltp(System& sys, const OltpParams& params);

}  // namespace lssim

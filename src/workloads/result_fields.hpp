// The RunResult field table: one row per value a run produces, keyed by
// its manifest key. Manifest and results-store JSON (both directions)
// and compare_replay iterate this table, so a counter added to RunResult
// needs one row here and nothing else. The text, CSV and JSON report
// formats (stats/report.cpp, driver/runner.cpp) print curated column
// sets of their own, in an order that is part of their output contract.
//
// A key is a path: "time.busy" is member `busy` of the nested object
// `time`, "read_miss_home.2" element 2 of the array `read_miss_home`.
// Rows that share a group are adjacent, in manifest order. Oracle
// counters are not in the manifest; their rows only drive the comparison.
#pragma once

#include "sim/config.hpp"
#include "sim/field_row.hpp"
#include "workloads/harness.hpp"

namespace lssim {

struct RunResultField : FieldRow<RunResult> {
  bool in_manifest;  ///< False: compared, never serialised.
};

namespace result_fields {

/// A counter at `Path`; `in_manifest` false for oracle counters.
template <auto... Path>
constexpr RunResultField counter(const char* key, bool in_manifest = true) {
  return {field_row::number<RunResult, Path...>(key), in_manifest};
}

/// Oracle counter `Member` of `oracle_total` (Tag < 0) or of
/// `oracle_by_tag[Tag]`.
template <int Tag, auto Member>
constexpr RunResultField oracle(const char* key) {
  if constexpr (Tag < 0) {
    return counter<&RunResult::oracle_total, Member>(key, false);
  } else {
    return counter<&RunResult::oracle_by_tag, Tag, Member>(key, false);
  }
}

/// An enum member named through `Table` (a NameTable).
template <auto Member, const auto& Table>
constexpr RunResultField named(const char* key) {
  return {field_row::named<RunResult, Table, Member>(key), true};
}

using O = LsOracleCounters;

inline constexpr RunResultField kTable[] = {
    named<&RunResult::protocol, kProtocolNames>("protocol"),
    named<&RunResult::directory, kDirectoryNames>("directory"),
    named<&RunResult::interconnect, kInterconnectNames>("interconnect"),
    counter<&RunResult::exec_time>("exec_cycles"),
    counter<&RunResult::time, &TimeBreakdown::busy>("time.busy"),
    counter<&RunResult::time, &TimeBreakdown::read_stall>("time.read_stall"),
    counter<&RunResult::time, &TimeBreakdown::write_stall>("time.write_stall"),
    counter<&RunResult::traffic, 0>("traffic.Read"),
    counter<&RunResult::traffic, 1>("traffic.Write"),
    counter<&RunResult::traffic, 2>("traffic.Other"),
    counter<&RunResult::traffic_total>("traffic.total"),
    counter<&RunResult::read_miss_home, 0>("read_miss_home.0"),
    counter<&RunResult::read_miss_home, 1>("read_miss_home.1"),
    counter<&RunResult::read_miss_home, 2>("read_miss_home.2"),
    counter<&RunResult::read_miss_home, 3>("read_miss_home.3"),
    counter<&RunResult::global_read_misses>("global_read_misses"),
    counter<&RunResult::global_write_actions>("global_write_actions"),
    counter<&RunResult::ownership_acquisitions>("ownership_acquisitions"),
    counter<&RunResult::invalidations>("invalidations"),
    counter<&RunResult::single_invalidations>("single_invalidations"),
    counter<&RunResult::eliminated_acquisitions>("eliminated_acquisitions"),
    counter<&RunResult::update_transactions>("update_transactions"),
    counter<&RunResult::updates_sent>("updates_sent"),
    counter<&RunResult::data_misses>("data_misses"),
    counter<&RunResult::coherence_misses>("coherence_misses"),
    counter<&RunResult::false_sharing_misses>("false_sharing_misses"),
    counter<&RunResult::accesses>("accesses"),
    counter<&RunResult::l1_hits>("l1_hits"),
    counter<&RunResult::l2_hits>("l2_hits"),
    counter<&RunResult::blocks_tagged>("blocks_tagged"),
    counter<&RunResult::blocks_detagged>("blocks_detagged"),
    counter<&RunResult::dir_entry_evictions>("dir_entry_evictions"),
    // Oracle counters: oracle_total, then oracle_by_tag per StreamTag.
    oracle<-1, &O::global_writes>("oracle_total.global_writes"),
    oracle<-1, &O::ls_writes>("oracle_total.ls_writes"),
    oracle<-1, &O::migratory_writes>("oracle_total.migratory_writes"),
    oracle<-1, &O::eliminated>("oracle_total.eliminated"),
    oracle<-1, &O::eliminated_ls>("oracle_total.eliminated_ls"),
    oracle<-1, &O::eliminated_migratory>("oracle_total.eliminated_migratory"),
    oracle<0, &O::global_writes>("oracle_by_tag.app.global_writes"),
    oracle<0, &O::ls_writes>("oracle_by_tag.app.ls_writes"),
    oracle<0, &O::migratory_writes>("oracle_by_tag.app.migratory_writes"),
    oracle<0, &O::eliminated>("oracle_by_tag.app.eliminated"),
    oracle<0, &O::eliminated_ls>("oracle_by_tag.app.eliminated_ls"),
    oracle<0, &O::eliminated_migratory>(
        "oracle_by_tag.app.eliminated_migratory"),
    oracle<1, &O::global_writes>("oracle_by_tag.library.global_writes"),
    oracle<1, &O::ls_writes>("oracle_by_tag.library.ls_writes"),
    oracle<1, &O::migratory_writes>("oracle_by_tag.library.migratory_writes"),
    oracle<1, &O::eliminated>("oracle_by_tag.library.eliminated"),
    oracle<1, &O::eliminated_ls>("oracle_by_tag.library.eliminated_ls"),
    oracle<1, &O::eliminated_migratory>(
        "oracle_by_tag.library.eliminated_migratory"),
    oracle<2, &O::global_writes>("oracle_by_tag.os.global_writes"),
    oracle<2, &O::ls_writes>("oracle_by_tag.os.ls_writes"),
    oracle<2, &O::migratory_writes>("oracle_by_tag.os.migratory_writes"),
    oracle<2, &O::eliminated>("oracle_by_tag.os.eliminated"),
    oracle<2, &O::eliminated_ls>("oracle_by_tag.os.eliminated_ls"),
    oracle<2, &O::eliminated_migratory>(
        "oracle_by_tag.os.eliminated_migratory"),
};

}  // namespace result_fields

inline constexpr const auto& kRunResultFields = result_fields::kTable;

}  // namespace lssim

// Tests for the tag-decision audit trail: ring semantics (wrap at exact
// capacity, capacity 0 = disabled), engine hook coverage for the policy
// reason codes, JSONL serialization (also against the same records built
// as Json trees), and driver-level cross-checks of
// the audit stream against the engine's own tag statistics and against
// the coherence trace's tag/detag instants.
#include "telemetry/audit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "../core/protocol_test_util.hpp"
#include "core/protocol_registry.hpp"
#include "driver/runner.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace lssim {
namespace {

CoherenceEvent audit_record(Cycles time, Addr block, NodeId node,
                            ProtoEventKind kind, TagReason reason,
                            std::uint8_t tag_progress,
                            std::uint8_t detag_progress, bool tagged) {
  CoherenceEvent e;
  e.time = time;
  e.block = block;
  e.node = node;
  e.kind = kind;
  e.reason = reason;
  e.tag_progress = tag_progress;
  e.detag_progress = detag_progress;
  e.tagged = tagged;
  return e;
}

void record_n(TagAuditLog& log, int n, Cycles start = 0) {
  for (int i = 0; i < n; ++i) {
    log.record(audit_record(start + static_cast<Cycles>(i), 0x40, 1,
                            ProtoEventKind::kTag, TagReason::kLsSequence, 0,
                            0, true));
  }
}

std::vector<Cycles> times_of(const TagAuditLog& log) {
  std::vector<Cycles> times;
  log.for_each([&](const CoherenceEvent& r) { times.push_back(r.time); });
  return times;
}

TEST(TagAuditLog, CapacityZeroIsDisabled) {
  TagAuditLog log(0);
  EXPECT_FALSE(log.enabled());
  record_n(log, 3);
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
  bool called = false;
  log.for_each([&](const CoherenceEvent&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TagAuditLog, ExactCapacityRetainsAllWithoutWrap) {
  TagAuditLog log(4);
  record_n(log, 4);
  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(times_of(log), (std::vector<Cycles>{0, 1, 2, 3}));
  // The next record wraps: exactly the oldest entry is replaced.
  record_n(log, 1, 4);
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(times_of(log), (std::vector<Cycles>{1, 2, 3, 4}));
}

TEST(TagAuditLog, RingDropsOldestAcrossMultipleWraps) {
  TagAuditLog log(3);
  record_n(log, 8);
  EXPECT_EQ(log.total(), 8u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(times_of(log), (std::vector<Cycles>{5, 6, 7}));
}

TEST(TagAuditLog, JsonlCarriesEveryFieldPlusSummary) {
  TagAuditLog log(8);
  log.record(audit_record(1234, 0x80, 2, ProtoEventKind::kDetag,
                          TagReason::kLoneWrite, 0, 0, false));
  std::ostringstream os;
  write_audit_jsonl(os, log, "LS");

  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  std::string error;
  const Json rec = Json::parse(lines[0], &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(rec.find("protocol")->as_string(), "LS");
  EXPECT_EQ(rec.find("time")->as_uint(), 1234u);
  EXPECT_EQ(rec.find("block")->as_uint(), 0x80u);
  EXPECT_EQ(rec.find("node")->as_uint(), 2u);
  EXPECT_EQ(rec.find("event")->as_string(), "detag");
  EXPECT_EQ(rec.find("reason")->as_string(), "lone-write");
  EXPECT_EQ(rec.find("tag_progress")->as_uint(), 0u);
  EXPECT_EQ(rec.find("detag_progress")->as_uint(), 0u);
  EXPECT_FALSE(rec.find("tagged")->as_bool());

  const Json summary = Json::parse(lines[1], &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(summary.find("event")->as_string(), "summary");
  EXPECT_EQ(summary.find("recorded")->as_uint(), 1u);
  EXPECT_EQ(summary.find("retained")->as_uint(), 1u);
}

TEST(TagAuditLog, JsonlSummaryReportsTruncation) {
  TagAuditLog log(2);
  record_n(log, 5);
  std::ostringstream os;
  write_audit_jsonl(os, log, "AD");
  std::string error;
  std::istringstream is(os.str());
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    last = line;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // 2 retained + summary.
  const Json summary = Json::parse(last, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(summary.find("recorded")->as_uint(), 5u);
  EXPECT_EQ(summary.find("retained")->as_uint(), 2u);
}

TEST(TagAuditLog, GoldenWrappedRingJsonl) {
  // Captured from the tree-based writer the streaming one replaced: the
  // oldest two records have been overwritten, the summary says so.
  TagAuditLog log(3);
  log.record(audit_record(10, 0x40, 1, ProtoEventKind::kTagProgress,
                          TagReason::kLsSequence, 1, 0, false));
  log.record(audit_record(20, 0x40, 1, ProtoEventKind::kTag,
                          TagReason::kLsSequence, 2, 0, true));
  log.record(audit_record(35, 0x80, 0, ProtoEventKind::kDetagProgress,
                          TagReason::kForeignAccess, 0, 1, true));
  log.record(audit_record(47, 0x80, 3, ProtoEventKind::kDetag,
                          TagReason::kReplacement, 0, 0, false));
  log.record(audit_record(90, 0xfc0, 2, ProtoEventKind::kTag,
                          TagReason::kMigratoryDetect, 0, 0, true));
  std::ostringstream os;
  write_audit_jsonl(os, log, "LS");
  EXPECT_EQ(os.str(), R"({"protocol":"LS","time":35,"block":128,"node":0,"event":"detag-progress","reason":"foreign-access","tag_progress":0,"detag_progress":1,"tagged":true}
{"protocol":"LS","time":47,"block":128,"node":3,"event":"detag","reason":"replacement","tag_progress":0,"detag_progress":0,"tagged":false}
{"protocol":"LS","time":90,"block":4032,"node":2,"event":"tag","reason":"migratory-detect","tag_progress":0,"detag_progress":0,"tagged":true}
{"protocol":"LS","event":"summary","recorded":5,"retained":3}
)");
}

// Every reason and every event kind, at the extremes of time, block,
// node and hysteresis counters, under a label that needs escaping: each
// line must equal the record built as a Json tree and written by
// Json::write, which shares none of the exporter's record code.
TEST(TagAuditLog, JsonlMatchesTheTreeWrittenRecords) {
  constexpr Cycles kEnd = std::numeric_limits<Cycles>::max();
  constexpr Addr kTopBlock = ~Addr{15};  // Highest 16-byte-aligned block.
  const std::string protocol = "LS \"quoted\"\nlabel";
  constexpr int kReasons =
      static_cast<int>(TagReason::kUpgradeInvalidations) + 1;
  std::vector<CoherenceEvent> records;
  for (int r = 0; r < kReasons; ++r) {
    for (int k = 0; k < kNumEventKinds; ++k) {
      const int i = static_cast<int>(records.size());
      records.push_back(audit_record(
          i % 2 == 0 ? kEnd : static_cast<Cycles>(i),
          i % 3 == 0 ? 0 : kTopBlock, static_cast<NodeId>(i % 4 == 0 ? 255 : r),
          static_cast<ProtoEventKind>(k), static_cast<TagReason>(r),
          static_cast<std::uint8_t>(i % 5 == 0 ? 255 : k),
          static_cast<std::uint8_t>(i % 7 == 0 ? 255 : r), i % 2 == 1));
    }
  }
  // A ring two short: the export starts mid-ring.
  TagAuditLog log(records.size() - 2);
  for (const CoherenceEvent& e : records) log.record(e);
  std::ostringstream os;
  write_audit_jsonl(os, log, protocol);

  std::string expected;
  for (std::size_t i = 2; i < records.size(); ++i) {
    const CoherenceEvent& e = records[i];
    ASSERT_STRNE(to_string(e.reason), "?");
    const Json line(Json::Object{
        {"protocol", Json(protocol)},
        {"time", Json(e.time)},
        {"block", Json(e.block)},
        {"node", Json(static_cast<int>(e.node))},
        {"event", Json(to_string(e.kind))},
        {"reason", Json(to_string(e.reason))},
        {"tag_progress", Json(static_cast<int>(e.tag_progress))},
        {"detag_progress", Json(static_cast<int>(e.detag_progress))},
        {"tagged", Json(e.tagged)},
    });
    expected += line.dump() + "\n";
  }
  const Json summary(Json::Object{
      {"protocol", Json(protocol)},
      {"event", Json("summary")},
      {"recorded", Json(std::uint64_t{records.size()})},
      {"retained", Json(std::uint64_t{records.size() - 2})},
  });
  expected += summary.dump() + "\n";
  EXPECT_EQ(os.str(), expected);
}

// --- Engine hook coverage -------------------------------------------------

struct AuditedFixture {
  explicit AuditedFixture(MachineConfig cfg)
      : telemetry((cfg.telemetry.audit_capacity = 4096, cfg.telemetry)),
        f(cfg, &telemetry) {}

  std::vector<CoherenceEvent> records() const {
    std::vector<CoherenceEvent> out;
    telemetry.audit_log().for_each(
        [&](const CoherenceEvent& r) { out.push_back(r); });
    return out;
  }

  Telemetry telemetry;
  ProtocolFixture f;
};

TEST(TagAuditEngine, LsSequenceTagIsAudited) {
  AuditedFixture ax(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = ax.f.on_home(0);
  (void)ax.f.read(1, a);
  (void)ax.f.write(1, a);  // Read-then-write by node 1: §3.1 tag.

  const auto records = ax.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, ProtoEventKind::kTag);
  EXPECT_EQ(records[0].reason, TagReason::kLsSequence);
  EXPECT_EQ(records[0].block, ax.f.block_of(a));
  EXPECT_EQ(records[0].node, 1u);
  EXPECT_TRUE(records[0].tagged);
}

TEST(TagAuditEngine, ForeignReadDetagIsAudited) {
  AuditedFixture ax(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = ax.f.on_home(0);
  (void)ax.f.read(1, a);
  (void)ax.f.write(1, a);  // Tag.
  (void)ax.f.read(2, a);   // Migrate: node 2 holds LStemp.
  (void)ax.f.read(3, a);   // Foreign read before the owning write: de-tag.

  const auto records = ax.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].kind, ProtoEventKind::kDetag);
  EXPECT_EQ(records[1].reason, TagReason::kForeignAccess);
  EXPECT_EQ(records[1].node, 3u);
  EXPECT_FALSE(records[1].tagged);
}

TEST(TagAuditEngine, LoneWriteDetagIsAudited) {
  AuditedFixture ax(ProtocolFixture::tiny(ProtocolKind::kLs));
  const Addr a = ax.f.on_home(0);
  (void)ax.f.read(1, a);
  (void)ax.f.write(1, a);  // Tag.
  (void)ax.f.write(2, a);  // Write miss with no preceding read: de-tag.

  const auto records = ax.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].kind, ProtoEventKind::kDetag);
  EXPECT_EQ(records[1].reason, TagReason::kLoneWrite);
  EXPECT_EQ(records[1].node, 2u);
}

TEST(TagAuditEngine, HysteresisProgressIsAuditedBeforeCrossing) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.protocol.tag_hysteresis = 2;
  AuditedFixture ax(cfg);
  const Addr a = ax.f.on_home(0);
  (void)ax.f.read(1, a);
  (void)ax.f.write(1, a);  // First LS sequence: progress 1/2, no tag yet.

  auto records = ax.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, ProtoEventKind::kTagProgress);
  EXPECT_EQ(records[0].tag_progress, 1u);
  EXPECT_FALSE(records[0].tagged);

  (void)ax.f.read(2, a);
  (void)ax.f.write(2, a);  // Second sequence crosses the threshold.
  records = ax.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].kind, ProtoEventKind::kTag);
  EXPECT_EQ(records[1].tag_progress, 0u);  // Counter after the event.
  EXPECT_TRUE(records[1].tagged);
}

TEST(TagAuditEngine, AdMigratoryDetectAndReplacementDetagAreAudited) {
  AuditedFixture ax(ProtocolFixture::tiny(ProtocolKind::kAd));
  const Addr a = ax.f.on_home(0);
  (void)ax.f.write(1, a);  // last_writer = 1.
  (void)ax.f.read(2, a);   // Sharing read: sharers = {1, 2}.
  (void)ax.f.write(2, a);  // Upgrade invalidating exactly {1}: detect.

  auto records = ax.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, ProtoEventKind::kTag);
  EXPECT_EQ(records[0].reason, TagReason::kMigratoryDetect);

  // Replacing the owning copy breaks AD's hand-off chain: the engine's
  // victim hook must audit the de-tag with the replacement reason.
  ax.f.force_eviction(2, a);
  records = ax.records();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[1].kind, ProtoEventKind::kDetag);
  EXPECT_EQ(records[1].reason, TagReason::kReplacement);
  EXPECT_EQ(records[1].node, 2u);
}

TEST(TagAuditEngine, AuditOffRecordsNothing) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  Telemetry telemetry(cfg.telemetry);  // Defaults: everything off.
  ProtocolFixture f(cfg, &telemetry);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a);
  EXPECT_EQ(telemetry.audit_log().total(), 0u);
  EXPECT_EQ(f.stats().blocks_tagged, 1u);  // The tag itself still happens.
}

// --- Driver-level cross-check ---------------------------------------------

// The audit stream and the engine's tag statistics observe the same hook
// sites; on a real workload their counts must agree exactly. This is the
// cheap half of the cross-check against the independent LS model in
// src/check/invariants.cpp (which asserts tag-state legality; here we
// assert the audit trail is a complete record of the transitions).
TEST(TagAuditDriver, AuditCountsMatchEngineTagStatistics) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kLs, ProtocolKind::kLsAd};
  options.audit_capacity = std::size_t{1} << 20;  // Retain everything.

  for (ProtocolKind kind : options.protocols) {
    const DriverRun run = run_driver_workload_captured(options, kind);
    std::uint64_t tags = 0;
    std::uint64_t detags = 0;
    run.audit.for_each([&](const CoherenceEvent& r) {
      if (r.kind == ProtoEventKind::kTag) ++tags;
      if (r.kind == ProtoEventKind::kDetag) ++detags;
    });
    ASSERT_EQ(run.audit.total(), run.audit.size())
        << "ring truncated; raise audit_capacity";
    EXPECT_EQ(tags, run.result.blocks_tagged) << to_string(kind);
    EXPECT_EQ(detags, run.result.blocks_detagged) << to_string(kind);
    EXPECT_GT(tags, 0u) << to_string(kind);
  }
}

// The audit trail and the Perfetto trace consume one event stream, so a
// tag decision must look the same in both. A small L2 makes AD de-tag on
// replacement, where the decided block (the victim) is not the block the
// access fills.
TEST(TagAuditDriver, TagDecisionsMatchTraceInstants) {
  DriverOptions options;
  options.workload = "oltp";
  options.params = {{"txns_per_proc", "300"}};
  options.machine.l2.size_bytes = 32 * 1024;
  options.trace_capacity = std::size_t{1} << 20;
  options.audit_capacity = std::size_t{1} << 20;
  using Decision = std::tuple<ProtoEventKind, Cycles, NodeId, Addr>;
  const auto is_decision = [](ProtoEventKind k) {
    return k == ProtoEventKind::kTag || k == ProtoEventKind::kDetag;
  };
  for (ProtocolKind kind : all_protocol_kinds()) {
    const DriverRun run = run_driver_workload_captured(options, kind);
    ASSERT_EQ(run.trace.dropped(), 0u) << to_string(kind);
    ASSERT_EQ(run.audit.total(), run.audit.size()) << to_string(kind);
    std::vector<Decision> audited;
    run.audit.for_each([&](const CoherenceEvent& e) {
      if (is_decision(e.kind)) {
        audited.emplace_back(e.kind, e.time, e.node, e.block);
      }
    });
    std::vector<Decision> traced;
    for (const TraceInstant& i : run.trace.instants()) {
      if (is_decision(i.kind)) {
        traced.emplace_back(i.kind, i.time, i.node, i.block);
      }
    }
    ASSERT_EQ(audited.size(), traced.size()) << to_string(kind);
    for (std::size_t n = 0; n < audited.size(); ++n) {
      ASSERT_EQ(audited[n], traced[n])
          << to_string(kind) << " decision #" << n << ": audit block 0x"
          << std::hex << std::get<3>(audited[n]) << ", trace block 0x"
          << std::get<3>(traced[n]);
    }
  }
}

}  // namespace
}  // namespace lssim

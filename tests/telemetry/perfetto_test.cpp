// Tests for the Chrome trace-event exporter: whole-document goldens of
// hand-built traces, a comparison with the same document built as a Json
// tree, parse-back fidelity, and an end-to-end driver run asserting
// duration events for every exercised protocol event kind.
#include "telemetry/perfetto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "driver/runner.hpp"
#include "telemetry/coherence_trace.hpp"
#include "telemetry/json.hpp"

namespace lssim {
namespace {

CoherenceTrace make_small_trace() {
  CoherenceTrace trace(16);
  trace.span(/*node=*/1, ProtoEventKind::kReadMiss, /*block=*/0x40,
             /*begin=*/100, /*end=*/320);
  trace.span(/*node=*/0, ProtoEventKind::kUpgrade, 0x40, 400, 650);
  trace.instant(/*node=*/1, ProtoEventKind::kTag, 0x40, /*time=*/650);
  return trace;
}

// Whole-document goldens: the exporter's contract is its bytes. These
// texts were captured from the tree-based exporter that the streaming one
// replaced, so any layout drift fails here.
std::string export_text(const std::vector<TraceProcess>& processes) {
  std::ostringstream os;
  write_chrome_trace(os, processes);
  return os.str();
}

TEST(PerfettoTest, GoldenSmallTrace) {
  const CoherenceTrace trace = make_small_trace();
  EXPECT_EQ(export_text({TraceProcess{"LS", &trace, nullptr}}), R"({
 "displayTimeUnit": "ms",
 "otherData": {
  "generator": "lssim",
  "time_unit": "1 cycle = 1us",
  "dropped_events": 0
 },
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "args": {
    "name": "LS"
   }
  },
  {
   "name": "read-miss",
   "cat": "coherence",
   "ph": "X",
   "ts": 100,
   "dur": 220,
   "pid": 0,
   "tid": 1,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "upgrade",
   "cat": "coherence",
   "ph": "X",
   "ts": 400,
   "dur": 250,
   "pid": 0,
   "tid": 0,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "tag",
   "cat": "coherence",
   "ph": "i",
   "s": "t",
   "ts": 650,
   "pid": 0,
   "tid": 1,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "node 0"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 1,
   "args": {
    "name": "node 1"
   }
  }
 ]
}
)");
}

TEST(PerfettoTest, GoldenTwoProcessesWithEventLog) {
  const CoherenceTrace trace = make_small_trace();
  EventLog log(8);
  log.record({.time = 42,
              .block = 0x100,
              .node = 2,
              .kind = ProtoEventKind::kWriteback});
  log.record({.time = 57,
              .block = 0x1c0,
              .node = 0,
              .kind = ProtoEventKind::kLocalWrite,
              .tagged = true});
  EXPECT_EQ(export_text({TraceProcess{"Baseline", &trace, nullptr},
                         TraceProcess{"log", nullptr, &log}}),
            R"({
 "displayTimeUnit": "ms",
 "otherData": {
  "generator": "lssim",
  "time_unit": "1 cycle = 1us",
  "dropped_events": 0
 },
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "args": {
    "name": "Baseline"
   }
  },
  {
   "name": "read-miss",
   "cat": "coherence",
   "ph": "X",
   "ts": 100,
   "dur": 220,
   "pid": 0,
   "tid": 1,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "upgrade",
   "cat": "coherence",
   "ph": "X",
   "ts": 400,
   "dur": 250,
   "pid": 0,
   "tid": 0,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "tag",
   "cat": "coherence",
   "ph": "i",
   "s": "t",
   "ts": 650,
   "pid": 0,
   "tid": 1,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "node 0"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 1,
   "args": {
    "name": "node 1"
   }
  },
  {
   "name": "process_name",
   "ph": "M",
   "pid": 1,
   "args": {
    "name": "log"
   }
  },
  {
   "name": "writeback",
   "cat": "coherence",
   "ph": "i",
   "s": "t",
   "ts": 42,
   "pid": 1,
   "tid": 2,
   "args": {
    "block": "0x000100"
   }
  },
  {
   "name": "local-write",
   "cat": "coherence",
   "ph": "i",
   "s": "t",
   "ts": 57,
   "pid": 1,
   "tid": 0,
   "args": {
    "block": "0x0001c0"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "node 0"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 1,
   "tid": 2,
   "args": {
    "name": "node 2"
   }
  }
 ]
}
)");
}

TEST(PerfettoTest, GoldenEmptyTraceHasOnlyMetadata) {
  const CoherenceTrace trace(4);
  EXPECT_EQ(export_text({TraceProcess{"empty", &trace, nullptr}}),
            R"({
 "displayTimeUnit": "ms",
 "otherData": {
  "generator": "lssim",
  "time_unit": "1 cycle = 1us",
  "dropped_events": 0
 },
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "args": {
    "name": "empty"
   }
  }
 ]
}
)");
}

TEST(PerfettoTest, GoldenCapacityLimitedTraceCountsDrops) {
  CoherenceTrace trace(2);
  trace.span(3, ProtoEventKind::kWriteMiss, 0x1234540, 0, 10);
  trace.instant(2, ProtoEventKind::kDetag, 0x40, 10);
  trace.span(0, ProtoEventKind::kReadMiss, 0x80, 20, 30);  // Dropped.
  trace.instant(0, ProtoEventKind::kTag, 0x80, 30);        // Dropped.
  ASSERT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(export_text({TraceProcess{"LS+AD", &trace, nullptr}}),
            R"({
 "displayTimeUnit": "ms",
 "otherData": {
  "generator": "lssim",
  "time_unit": "1 cycle = 1us",
  "dropped_events": 2
 },
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "args": {
    "name": "LS+AD"
   }
  },
  {
   "name": "write-miss",
   "cat": "coherence",
   "ph": "X",
   "ts": 0,
   "dur": 10,
   "pid": 0,
   "tid": 3,
   "args": {
    "block": "0x1234540"
   }
  },
  {
   "name": "detag",
   "cat": "coherence",
   "ph": "i",
   "s": "t",
   "ts": 10,
   "pid": 0,
   "tid": 2,
   "args": {
    "block": "0x000040"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 2,
   "args": {
    "name": "node 2"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 3,
   "args": {
    "name": "node 3"
   }
  }
 ]
}
)");
}

// The exporter's schema, rebuilt as a Json tree and written by
// Json::write: a second writer for the same document that shares none of
// the exporter's record code.
Json expected_event(ProtoEventKind kind, bool span, Cycles ts, Cycles dur,
                    int pid, NodeId node, Addr block) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%06llx",
                static_cast<unsigned long long>(block));
  Json e(Json::Object{});
  e.set("name", to_string(kind));
  e.set("cat", "coherence");
  e.set("ph", span ? "X" : "i");
  if (!span) e.set("s", "t");
  e.set("ts", ts);
  if (span) e.set("dur", dur);
  e.set("pid", pid);
  e.set("tid", static_cast<int>(node));
  e.set("args", Json(Json::Object{{"block", Json(std::string(hex))}}));
  return e;
}

Json expected_metadata(const char* what, int pid, int tid,
                       const std::string& name) {
  Json m(Json::Object{});
  m.set("name", what);
  m.set("ph", "M");
  m.set("pid", pid);
  if (tid >= 0) m.set("tid", tid);
  m.set("args", Json(Json::Object{{"name", Json(name)}}));
  return m;
}

std::string expected_document(const std::vector<TraceProcess>& processes) {
  std::uint64_t dropped = 0;
  Json::Array events;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const TraceProcess& proc = processes[p];
    const int pid = static_cast<int>(p);
    events.push_back(expected_metadata("process_name", pid, -1, proc.name));
    std::set<NodeId> nodes;
    if (proc.trace != nullptr) {
      dropped += proc.trace->dropped();
      for (const TraceSpan& s : proc.trace->spans()) {
        events.push_back(expected_event(s.kind, true, s.begin,
                                        s.end - s.begin, pid, s.node,
                                        s.block));
        nodes.insert(s.node);
      }
      for (const TraceInstant& i : proc.trace->instants()) {
        events.push_back(
            expected_event(i.kind, false, i.time, 0, pid, i.node, i.block));
        nodes.insert(i.node);
      }
    }
    if (proc.log != nullptr) {
      proc.log->for_each([&](const CoherenceEvent& e) {
        events.push_back(
            expected_event(e.kind, false, e.time, 0, pid, e.node, e.block));
        nodes.insert(e.node);
      });
    }
    for (const NodeId node : nodes) {
      events.push_back(expected_metadata("thread_name", pid, node,
                                         "node " + std::to_string(node)));
    }
  }
  Json doc(Json::Object{});
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData",
          Json(Json::Object{{"generator", Json("lssim")},
                            {"time_unit", Json("1 cycle = 1us")},
                            {"dropped_events", Json(dropped)}}));
  doc.set("traceEvents", Json(std::move(events)));
  std::ostringstream os;
  doc.write(os, 1);
  os << "\n";
  return os.str();
}

TEST(PerfettoTest, ExportMatchesTheTreeWrittenDocument) {
  constexpr Cycles kEnd = std::numeric_limits<Cycles>::max();
  constexpr Addr kTopBlock = ~Addr{15};  // Highest 16-byte-aligned block.
  constexpr NodeId kTopNode = 255;
  // Every kind as a span and as an instant, at the extremes of time,
  // block and node.
  CoherenceTrace trace(4 * kNumEventKinds);
  for (int k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<ProtoEventKind>(k);
    const auto node = static_cast<NodeId>(k % 2 == 0 ? kTopNode : k);
    const Addr block = k % 3 == 0 ? 0 : kTopBlock;
    trace.span(node, kind, block, static_cast<Cycles>(k), kEnd);
    trace.instant(node, kind, k % 3 == 1 ? 0 : kTopBlock,
                  k % 2 == 0 ? kEnd : 0);
  }
  trace.span(0, ProtoEventKind::kReadMiss, kTopBlock, kEnd, kEnd);
  EventLog log(4);
  log.record({.time = kEnd,
              .block = kTopBlock,
              .node = kTopNode,
              .kind = ProtoEventKind::kNotLs});
  log.record({.time = 0,
              .block = 0,
              .node = 0,
              .kind = ProtoEventKind::kMigrate});
  const std::vector<TraceProcess> processes = {
      TraceProcess{"LS \"quoted\"\nlabel", &trace, nullptr},
      TraceProcess{"log", nullptr, &log},
      TraceProcess{"both", &trace, &log}};
  EXPECT_EQ(export_text(processes), expected_document(processes));
  // The golden traces agree with the tree as well.
  const CoherenceTrace small = make_small_trace();
  const std::vector<TraceProcess> golden = {
      TraceProcess{"Baseline", &small, nullptr}};
  EXPECT_EQ(export_text(golden), expected_document(golden));
}

TEST(PerfettoTest, ParseBackRecoversEveryField) {
  std::ostringstream os;
  write_chrome_trace(os, "Baseline", make_small_trace());

  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  // 1 process_name + 2 spans + 1 instant + 2 thread_name.
  ASSERT_EQ(events.size(), 6u);
  const auto is_span = [](const ChromeTraceEvent& e) { return e.ph == "X"; };
  ASSERT_EQ(std::count_if(events.begin(), events.end(), is_span), 2);
  const auto read_miss =
      std::find_if(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.ph == "X" && e.name == "read-miss";
      });
  ASSERT_NE(read_miss, events.end());
  EXPECT_EQ(read_miss->ts, 100u);
  EXPECT_EQ(read_miss->dur, 220u);
  EXPECT_EQ(read_miss->pid, 0);
  EXPECT_EQ(read_miss->tid, 1);
  EXPECT_EQ(read_miss->cat, "coherence");
  EXPECT_EQ(read_miss->arg_block, "0x000040");

  const auto instant =
      std::find_if(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.ph == "i";
      });
  ASSERT_NE(instant, events.end());
  EXPECT_EQ(instant->name, "tag");
  EXPECT_EQ(instant->ts, 650u);
}

TEST(PerfettoTest, CapacityDropsAreCountedNotSilent) {
  CoherenceTrace trace(2);
  trace.span(0, ProtoEventKind::kReadMiss, 0x0, 0, 10);
  trace.span(0, ProtoEventKind::kReadMiss, 0x40, 10, 20);
  trace.span(0, ProtoEventKind::kReadMiss, 0x80, 20, 30);  // Dropped.
  trace.instant(0, ProtoEventKind::kTag, 0x80, 30);        // Dropped.
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.dropped(), 2u);

  std::ostringstream os;
  write_chrome_trace(os, "X", trace);
  EXPECT_NE(os.str().find("\"dropped_events\": 2"), std::string::npos);
}

TEST(PerfettoTest, CapacityLimitedExportKeepsRetainedEventsInOrder) {
  // A capacity-limited trace exports exactly its retained events (the
  // first N; overflow is counted, not exported) in timestamp order.
  CoherenceTrace trace(3);
  trace.span(0, ProtoEventKind::kReadMiss, 0x00, 5, 15);
  trace.span(1, ProtoEventKind::kWriteMiss, 0x40, 20, 35);
  trace.span(0, ProtoEventKind::kUpgrade, 0x80, 40, 55);
  trace.span(1, ProtoEventKind::kReadMiss, 0xc0, 60, 70);  // Dropped.
  trace.instant(0, ProtoEventKind::kTag, 0xc0, 70);        // Dropped.

  std::ostringstream os;
  write_chrome_trace(os, "LS", trace);
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  std::vector<const ChromeTraceEvent*> coherence;
  for (const ChromeTraceEvent& e : events) {
    if (e.cat == "coherence") coherence.push_back(&e);
  }
  // Only the retained events appear: nothing from the dropped tail.
  ASSERT_EQ(coherence.size(), 3u);
  for (const ChromeTraceEvent* e : coherence) {
    EXPECT_NE(e->arg_block, "0x0000c0");
  }
  // ...and in timestamp order.
  for (std::size_t i = 1; i < coherence.size(); ++i) {
    EXPECT_LE(coherence[i - 1]->ts, coherence[i]->ts);
  }
  EXPECT_NE(os.str().find("\"dropped_events\": 2"), std::string::npos);
}

TEST(PerfettoTest, MultiProcessExportAssignsDistinctPids) {
  const CoherenceTrace a = make_small_trace();
  const CoherenceTrace b = make_small_trace();
  std::ostringstream os;
  write_chrome_trace(os, {TraceProcess{"Baseline", &a, nullptr},
                          TraceProcess{"LS", &b, nullptr}});
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;
  std::set<int> pids;
  for (const ChromeTraceEvent& e : events) pids.insert(e.pid);
  EXPECT_EQ(pids, (std::set<int>{0, 1}));
}

TEST(PerfettoTest, EventLogExportsAsInstants) {
  EventLog log(8);
  log.record({.time = 42,
              .block = 0x100,
              .node = 2,
              .kind = ProtoEventKind::kWriteback});
  std::ostringstream os;
  write_chrome_trace(os, {TraceProcess{"log", nullptr, &log}});
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;
  const auto wb =
      std::find_if(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.name == "writeback";
      });
  ASSERT_NE(wb, events.end());
  EXPECT_EQ(wb->ph, "i");
  EXPECT_EQ(wb->ts, 42u);
  EXPECT_EQ(wb->tid, 2);
}

TEST(PerfettoTest, ParseRejectsMalformedDocuments) {
  std::vector<ChromeTraceEvent> events;
  std::string error;
  EXPECT_FALSE(parse_chrome_trace("[1,2]", &events, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_chrome_trace("{\"traceEvents\": 5}", &events, &error));
  EXPECT_FALSE(error.empty());
}

// End-to-end acceptance: run two protocols through the driver with
// tracing on and verify the exported document contains at least one
// duration event for every protocol event kind the run exercised.
TEST(PerfettoTest, EndToEndRunProducesDurationEventsPerExercisedKind) {
  DriverOptions options;
  options.workload = "pingpong";
  options.protocols = {ProtocolKind::kBaseline, ProtocolKind::kLs};
  options.trace_capacity = 1 << 16;

  std::vector<DriverRun> runs;
  for (ProtocolKind kind : options.protocols) {
    runs.push_back(run_driver_workload_captured(options, kind));
  }

  std::vector<TraceProcess> processes;
  for (const DriverRun& run : runs) {
    processes.push_back(
        TraceProcess{to_string(run.result.protocol), &run.trace, nullptr});
  }
  std::ostringstream os;
  write_chrome_trace(os, processes);

  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(parse_chrome_trace(os.str(), &events, &error)) << error;

  for (std::size_t p = 0; p < runs.size(); ++p) {
    // Every span kind the run recorded must appear as an "X" event of
    // this pid in the export.
    std::set<std::string> exercised;
    for (const TraceSpan& s : runs[p].trace.spans()) {
      exercised.insert(to_string(s.kind));
    }
    EXPECT_FALSE(exercised.empty());
    for (const std::string& kind : exercised) {
      const bool found = std::any_of(
          events.begin(), events.end(), [&](const ChromeTraceEvent& e) {
            return e.ph == "X" && e.pid == static_cast<int>(p) &&
                   e.name == kind && e.dur > 0;
          });
      EXPECT_TRUE(found) << "missing duration event for " << kind
                         << " in pid " << p;
    }
  }

  // The pingpong workload bounces ownership: Baseline must show
  // upgrades; LS must show the eliminated-acquisition instants.
  const bool baseline_upgrades =
      std::any_of(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.pid == 0 && e.ph == "X" && e.name == "upgrade";
      });
  EXPECT_TRUE(baseline_upgrades);
  const bool ls_local_writes =
      std::any_of(events.begin(), events.end(), [](const ChromeTraceEvent& e) {
        return e.pid == 1 && e.ph == "i" && e.name == "local-write";
      });
  EXPECT_TRUE(ls_local_writes);
}

}  // namespace
}  // namespace lssim

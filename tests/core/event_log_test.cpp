// Protocol event log: ring semantics and hook coverage.
#include "telemetry/coherence_event.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "protocol_test_util.hpp"

namespace lssim {
namespace {

CoherenceEvent event_at(Cycles time,
                        ProtoEventKind kind = ProtoEventKind::kReadMiss) {
  CoherenceEvent e;
  e.time = time;
  e.kind = kind;
  e.node = 0;
  return e;
}

/// The event log of a fixture whose Telemetry keeps `capacity` events.
struct LoggedFixture {
  LoggedFixture(MachineConfig cfg, std::size_t capacity)
      : telemetry((cfg.telemetry.event_log_capacity = capacity,
                   cfg.telemetry)),
        f(cfg, &telemetry) {}

  std::vector<CoherenceEvent> events() const {
    std::vector<CoherenceEvent> out;
    telemetry.event_log().for_each(
        [&](const CoherenceEvent& e) { out.push_back(e); });
    return out;
  }

  Telemetry telemetry;
  ProtocolFixture f;
};

TEST(EventLog, DisabledByDefault) {
  EventLog log;
  EXPECT_FALSE(log.enabled());
  log.record(event_at(1, ProtoEventKind::kTag));
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, RetainsInOrder) {
  EventLog log(8);
  for (int i = 0; i < 5; ++i) {
    CoherenceEvent e = event_at(static_cast<Cycles>(i));
    e.block = static_cast<Addr>(i * 16);
    log.record(e);
  }
  std::vector<Cycles> times;
  log.for_each([&](const CoherenceEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{0, 1, 2, 3, 4}));
}

TEST(EventLog, ExplicitCapacityZeroStaysDisabled) {
  EventLog log(0);
  EXPECT_FALSE(log.enabled());
  for (int i = 0; i < 3; ++i) {
    log.record(event_at(static_cast<Cycles>(i), ProtoEventKind::kTag));
  }
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
  bool called = false;
  log.for_each([&](const CoherenceEvent&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(EventLog, ExactCapacityRetainsAllThenWrapsByOne) {
  EventLog log(4);
  for (int i = 0; i < 4; ++i) {
    log.record(event_at(static_cast<Cycles>(i)));
  }
  // Filling to exactly capacity must not wrap: all records retained.
  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.size(), 4u);
  std::vector<Cycles> times;
  log.for_each([&](const CoherenceEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{0, 1, 2, 3}));
  // One more record replaces exactly the oldest entry.
  log.record(event_at(4));
  times.clear();
  log.for_each([&](const CoherenceEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{1, 2, 3, 4}));
}

TEST(EventLog, RingDropsOldest) {
  EventLog log(3);
  for (int i = 0; i < 7; ++i) {
    log.record(event_at(static_cast<Cycles>(i), ProtoEventKind::kUpgrade));
  }
  EXPECT_EQ(log.total(), 7u);
  EXPECT_EQ(log.size(), 3u);
  std::vector<Cycles> times;
  log.for_each([&](const CoherenceEvent& e) { times.push_back(e.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{4, 5, 6}));
}

TEST(EventLog, DumpFormatsLines) {
  EventLog log(4);
  CoherenceEvent e = event_at(12340, ProtoEventKind::kUpgrade);
  e.block = 0x40;
  e.node = 1;
  e.dir_state = DirState::kDirty;
  e.tagged = true;
  log.record(e);
  std::ostringstream os;
  log.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("@12340"), std::string::npos);
  EXPECT_NE(out.find("P1"), std::string::npos);
  EXPECT_NE(out.find("upgrade"), std::string::npos);
  EXPECT_NE(out.find("[tagged]"), std::string::npos);
}

TEST(EventLogIntegration, LsLifecycleEventsAppear) {
  LoggedFixture lf(ProtocolFixture::tiny(ProtocolKind::kLs), 256);
  ProtocolFixture& f = lf.f;
  const Addr a = f.on_home(0);
  (void)f.read(1, a);    // read-miss
  (void)f.write(1, a);   // upgrade + tag
  (void)f.read(2, a);    // read-miss + migrate
  (void)f.write(2, a);   // local-write
  (void)f.read(3, a);    // read-miss + migrate
  (void)f.read(0, a);    // read-miss + notls + detag
  (void)f.write(1, a);   // write-miss (invalidates 0 and 3)
  (void)f.read(2, a);    // read-miss (read-on-dirty: 1 and 2 share)
  f.force_eviction(2, a);  // repl-hint (conflict reads miss elsewhere)

  std::vector<CoherenceEvent> events;
  for (const CoherenceEvent& e : lf.events()) {
    if (e.block == f.block_of(a)) events.push_back(e);
  }
  auto count = [&](ProtoEventKind kind) {
    std::size_t n = 0;
    for (const CoherenceEvent& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(ProtoEventKind::kReadMiss), 5u);
  EXPECT_EQ(count(ProtoEventKind::kWriteMiss), 1u);
  EXPECT_EQ(count(ProtoEventKind::kUpgrade), 1u);
  EXPECT_EQ(count(ProtoEventKind::kTag), 1u);
  EXPECT_EQ(count(ProtoEventKind::kMigrate), 2u);
  EXPECT_EQ(count(ProtoEventKind::kLocalWrite), 1u);
  EXPECT_EQ(count(ProtoEventKind::kNotLs), 1u);
  EXPECT_EQ(count(ProtoEventKind::kDetag), 1u);
  EXPECT_EQ(count(ProtoEventKind::kReplHint), 1u);

  // Each record carries the home entry's state after the event: the
  // first read miss leaves the block Shared (it was Uncached before).
  const auto first = [&](ProtoEventKind kind) {
    for (const CoherenceEvent& e : events) {
      if (e.kind == kind) return e;
    }
    ADD_FAILURE() << "no " << to_string(kind);
    return CoherenceEvent{};
  };
  EXPECT_EQ(first(ProtoEventKind::kReadMiss).dir_state, DirState::kShared);
  EXPECT_EQ(first(ProtoEventKind::kUpgrade).dir_state, DirState::kDirty);
  EXPECT_EQ(first(ProtoEventKind::kNotLs).dir_state, DirState::kShared);
  EXPECT_EQ(first(ProtoEventKind::kWriteMiss).dir_state, DirState::kDirty);
  EXPECT_EQ(first(ProtoEventKind::kWriteMiss).node, 1u);
  EXPECT_EQ(first(ProtoEventKind::kReplHint).node, 2u);
  EXPECT_EQ(first(ProtoEventKind::kReplHint).dir_state, DirState::kShared);
}

TEST(EventLogIntegration, WritebackRecordedOnDirtyEviction) {
  LoggedFixture lf(ProtocolFixture::tiny(ProtocolKind::kBaseline), 64);
  const Addr a = lf.f.on_home(0);
  (void)lf.f.write(1, a, 5);
  lf.f.force_eviction(1, a);
  bool saw_writeback = false;
  for (const CoherenceEvent& e : lf.events()) {
    if (e.kind == ProtoEventKind::kWriteback &&
        e.block == lf.f.block_of(a)) {
      saw_writeback = true;
    }
  }
  EXPECT_TRUE(saw_writeback);
}

}  // namespace
}  // namespace lssim

// Every protocol's policy decisions, pinned in one table: for each
// ProtocolKind and each point of a small grid of directory states, the
// read grant, the base-protocol facts and every tag hook's answer. The
// table is the specification; only answers() knows how the answers are
// obtained from the implementation.
#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/protocol_registry.hpp"

namespace lssim {
namespace {

/// One protocol's expected decisions. The strings index the input grid;
/// '-' always means "no action" (or a shared grant).
struct Row {
  ProtocolKind kind;
  /// The §5.5 default_tagged knob applies. Only then can an entry be
  /// tagged at all (the other protocols' hooks never tag), so tagged
  /// inputs are checked only for these rows.
  bool default_tag;
  /// A read miss on a dirty block leaves the owner in Owned.
  bool owner_keeps;
  /// Writes update remote copies instead of invalidating them.
  bool updates;
  /// Read grant of an untagged entry, per state Uncached, Shared, Dirty:
  /// 'E' exclusive. A tagged entry is always granted exclusive.
  const char* grant;
  /// on_global_write for an upgrade (first six) then a write miss (last
  /// six); within each, the writer is the last reader (first three) or
  /// not (last three); within those, state Uncached, Shared, Dirty.
  /// 'T' tag for an LS sequence, 'M' tag for AD migratory detection,
  /// 'F' tag for the LS+AD migratory fallback, 'L' lone-write de-tag.
  const char* write;
  /// on_upgrade_invalidations for 1 and 3 invalidations: 'D' de-tag.
  const char* upgrade_invalidations;
  /// on_victim_writeback for a Shared and a Modified victim: 'D' de-tag.
  const char* victim;
};

constexpr Row kTable[] = {
    {ProtocolKind::kBaseline, false, false, false, "---", "------------",
     "--", "--"},
    {ProtocolKind::kAd, true, false, false, "---", "-M--M-------", "-D",
     "-D"},
    {ProtocolKind::kLs, true, false, false, "---", "TTT---TTTLLL", "--",
     "--"},
    {ProtocolKind::kIls, true, false, false, "---", "------------", "--",
     "--"},
    {ProtocolKind::kLsAd, true, false, false, "---", "TTT-F-TTTLLL", "-D",
     "--"},
    {ProtocolKind::kMesi, false, false, false, "E--", "------------", "--",
     "--"},
    {ProtocolKind::kMoesi, false, true, false, "E--", "------------", "--",
     "--"},
    {ProtocolKind::kDragon, false, true, true, "E--", "------------", "--",
     "--"},
    {ProtocolKind::kLsMesi, true, false, false, "E--", "TTT---TTTLLL", "--",
     "--"},
    {ProtocolKind::kLsDragon, true, true, true, "E--", "TTT---TTTLLL", "--",
     "--"},
};

/// What a protocol answers at one grid point.
struct Answers {
  bool default_tag = false;
  bool owner_keeps = false;
  bool updates = false;
  bool grant = false;
  WriteTagDecision write;
  TagAction upgrade_invalidations = TagAction::kNone;
  TagAction victim = TagAction::kNone;
};

Answers answers(ProtocolKind kind, const DirEntry& e, NodeId writer,
                bool upgrade, int invalidations, CacheState victim) {
  MachineConfig cfg;
  cfg.protocol.kind = kind;
  const ProtocolInfo& row = protocol_info(kind);
  const auto policy = make_policy(cfg);
  Answers a;
  a.default_tag = row.has_tag_rule();
  a.owner_keeps = row.base.owner_keeps;
  a.updates = row.base.updates;
  a.grant = policy->read_grants_exclusive(e, /*predicted=*/false) ||
            (row.base.cold_exclusive && e.state == DirState::kUncached);
  a.write = policy->on_global_write(e, writer, upgrade);
  a.upgrade_invalidations = policy->on_upgrade_invalidations(e, invalidations);
  a.victim = policy->on_victim_writeback(e, victim);
  return a;
}

char code(TagAction action) {
  switch (action) {
    case TagAction::kNone: return '-';
    case TagAction::kTag: return 'T';
    case TagAction::kDetag: return 'D';
  }
  return '?';
}

char code(const WriteTagDecision& d) {
  if (d.action == TagAction::kNone && !d.lone_write_detag) {
    return '-';
  }
  if (d.action == TagAction::kTag && !d.lone_write_detag) {
    switch (d.reason) {
      case TagReason::kLsSequence: return 'T';
      case TagReason::kMigratoryDetect: return 'M';
      case TagReason::kMigratoryFallback: return 'F';
      default: return '?';
    }
  }
  if (d.action == TagAction::kDetag && d.lone_write_detag &&
      d.reason == TagReason::kLoneWrite) {
    return 'L';
  }
  return '?';
}

TEST(ProtocolTableTest, OneRowPerKindInEnumOrder) {
  ASSERT_EQ(std::size(kTable), static_cast<std::size_t>(kNumProtocolKinds));
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kTable[i].kind), i);
  }
}

constexpr NodeId kWriter = 1;
constexpr NodeId kOther = 2;  // The last writer; the owner when dirty.
constexpr NodeId kThird = 3;
constexpr DirState kStates[] = {DirState::kUncached, DirState::kShared,
                                DirState::kDirty};
constexpr CacheState kVictims[] = {CacheState::kShared,
                                   CacheState::kModified};

/// One point of the input grid.
struct Point {
  bool tagged;
  bool upgrade;
  bool writer_read_last;
  int state;  ///< Index into kStates.
  int invalidations;
  CacheState victim;
};

DirEntry entry_at(const Point& p) {
  DirEntry e;
  e.state = kStates[p.state];
  e.tagged = p.tagged;
  e.last_writer = kOther;
  e.last_reader = p.writer_read_last ? kWriter : kThird;
  if (e.state == DirState::kShared) {
    e.add_sharer(kWriter);
    e.add_sharer(kOther);
  } else if (e.state == DirState::kDirty) {
    e.owner = kOther;
  }
  return e;
}

std::string describe(const Row& row, const Point& p) {
  std::string s = to_string(row.kind);
  s += p.tagged ? " tagged" : " untagged";
  s += p.upgrade ? " upgrade" : " write-miss";
  s += p.writer_read_last ? " LR=writer " : " LR=other ";
  s += to_string(kStates[p.state]);
  s += " inv=" + std::to_string(p.invalidations);
  s += " victim=";
  s += to_string(p.victim);
  return s;
}

void check(const Row& row, const Point& p) {
  SCOPED_TRACE(describe(row, p));
  const DirEntry e = entry_at(p);
  const Answers a =
      answers(row.kind, e, kWriter, p.upgrade, p.invalidations, p.victim);
  const int w = (p.upgrade ? 0 : 6) + (p.writer_read_last ? 0 : 3) + p.state;
  const int inv = p.invalidations == 1 ? 0 : 1;
  const int vic = p.victim == CacheState::kShared ? 0 : 1;
  EXPECT_EQ(a.default_tag, row.default_tag);
  EXPECT_EQ(a.owner_keeps, row.owner_keeps);
  EXPECT_EQ(a.updates, row.updates);
  EXPECT_EQ(a.grant, p.tagged || row.grant[p.state] == 'E');
  EXPECT_EQ(code(a.write), row.write[w]);
  EXPECT_EQ(code(a.upgrade_invalidations), row.upgrade_invalidations[inv]);
  EXPECT_EQ(code(a.victim), row.victim[vic]);
}

TEST(ProtocolTableTest, EveryKindDecidesAsItsRowSays) {
  for (const Row& row : kTable) {
    for (const bool tagged : {false, true}) {
      if (tagged && !row.default_tag) {
        continue;
      }
      for (const bool upgrade : {true, false}) {
        for (const bool writer_read_last : {true, false}) {
          for (int state = 0; state < 3; ++state) {
            for (const int invalidations : {1, 3}) {
              for (const CacheState victim : kVictims) {
                check(row, {tagged, upgrade, writer_read_last, state,
                            invalidations, victim});
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lssim

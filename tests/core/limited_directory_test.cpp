// Dir_iB limited-pointer directory (extension): real pointer storage in
// the sharer word, broadcast once the pointer budget overflows.
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "core/directory_policy.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

MachineConfig limited_cfg(ProtocolKind kind, int pointers) {
  MachineConfig cfg = ProtocolFixture::tiny(kind);
  cfg.directory_scheme = DirectoryKind::kLimitedPtr;
  cfg.directory_pointers = static_cast<std::uint8_t>(pointers);
  return cfg;
}

TEST(LimitedDir, NoOverflowWithinPointerBudget) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.write(0, a);
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            1u);  // Precise: only node 1 invalidated.
}

TEST(LimitedDir, OverflowTriggersBroadcastInvalidation) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  (void)f.read(2, a);  // Third sharer: pointers overflow.
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(0, a);
  // Broadcast: invalidations to ALL other nodes (3 on a 4-node machine),
  // even node 3 which holds no copy.
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            3u);
  EXPECT_EQ(f.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(2, a), CacheState::kInvalid);
  EXPECT_EQ(f.state_of(0, a), CacheState::kModified);
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
}

TEST(LimitedDir, BelievedSharersMatchPointers) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(3, a);
  (void)f.read(1, a);
  const DirectoryPolicy& dp = f.ms().directory_policy();
  const SharerSet believed = dp.believed_sharers(f.dir(a));
  EXPECT_EQ(believed.count(), 2);
  EXPECT_TRUE(believed.test(1));
  EXPECT_TRUE(believed.test(3));
  EXPECT_FALSE(believed.test(0));
}

TEST(LimitedDir, OverflowClearsOnceExclusive) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 1));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);  // Write miss: precise single owner again.
  EXPECT_FALSE(f.dir(a).imprecise);
  // Read-on-dirty rebuilds {owner, reader}: two sharers fit two pointers
  // but overflow a single one.
  (void)f.read(3, a);
  EXPECT_TRUE(f.dir(a).imprecise);
}

TEST(LimitedDir, ReadOnDirtyStaysPreciseWithTwoPointers) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.write(2, a);
  (void)f.read(3, a);  // Owner downgrade: sharers {2, 3} fit 2 pointers.
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.write(3, a);
  // Precise upgrade: only the other pointer (node 2) is invalidated.
  EXPECT_EQ(f.stats().messages_by_type[static_cast<int>(MsgType::kInval)],
            1u);
}

TEST(LimitedDir, OverflowBlindsAdDetection) {
  // AD needs the precise "one other copy == last writer" evidence, which
  // Dir_iB loses on overflow. LS's last-reader field needs no sharer
  // list, so it keeps working — an argument the LS design gets for free.
  ProtocolFixture f(limited_cfg(ProtocolKind::kAd, 2));
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);  // Owner downgrade: sharers {1, 2} are precise...
  EXPECT_FALSE(f.dir(a).imprecise);
  (void)f.read(3, a);  // ...but the third sharer overflows.
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);
  EXPECT_FALSE(f.dir(a).tagged);
}

TEST(LimitedDir, AdDetectionWorksWhilePrecise) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kAd, 2));
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);  // {1, 2} precise; last_writer == 1.
  (void)f.write(2, a);  // Upgrade with migratory evidence: tags.
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST(LimitedDir, LsTaggingSurvivesOverflow) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kLs, 1));
  const Addr a = f.on_home(0);
  (void)f.read(0, a);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  (void)f.write(2, a);  // Writer == LR: LS tags despite the overflow.
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST(LimitedDir, OverflowSurvivesReplacements) {
  // Real Dir_iB cannot learn from replacements once overflowed: the
  // pointer list is gone, so the entry stays imprecise (a broadcast
  // superset) even after every actual copy is evicted. The invariant
  // checker's superset rule permits exactly this.
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 1));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_TRUE(f.dir(a).imprecise);
  f.force_eviction(1, a);
  f.force_eviction(2, a);
  EXPECT_EQ(f.dir(a).state, DirState::kShared);
  EXPECT_TRUE(f.dir(a).imprecise);
  EXPECT_EQ(coherence_violations(f.ms()), kNoViolations);
  // The next writer re-precises the entry.
  (void)f.write(3, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  EXPECT_EQ(f.dir(a).state, DirState::kDirty);
}

TEST(LimitedDir, PreciseReplacementReclaimsEntry) {
  ProtocolFixture f(limited_cfg(ProtocolKind::kBaseline, 2));
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.read(2, a);
  EXPECT_FALSE(f.dir(a).imprecise);
  f.force_eviction(1, a);
  f.force_eviction(2, a);
  EXPECT_EQ(f.dir(a).state, DirState::kUncached);
  EXPECT_FALSE(f.dir(a).imprecise);
}

}  // namespace
}  // namespace lssim

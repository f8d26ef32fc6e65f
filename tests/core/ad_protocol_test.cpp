// The AD comparator: adaptive migratory-sharing optimization
// (Stenström/Brorsson/Sandberg ISCA'93; paper §2.1).
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

class AdTest : public ::testing::Test {
 protected:
  AdTest() : f_(ProtocolFixture::tiny(ProtocolKind::kAd)) {}
  ProtocolFixture f_;
};

TEST_F(AdTest, DetectsMigratorySharing) {
  const Addr a = f_.on_home(0);
  // P1: load-store; P2: load-store -> at P2's upgrade the only other copy
  // belongs to the last writer (P1): migratory detected.
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  EXPECT_FALSE(f_.dir(a).tagged);  // First writer: nothing to detect yet.
  (void)f_.read(2, a);             // Read-on-dirty: {1, 2} share.
  (void)f_.write(2, a);            // Others == {last_writer=1}: tag.
  EXPECT_TRUE(f_.dir(a).tagged);
  // From now on reads migrate exclusively.
  (void)f_.read(3, a);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kLStemp);
  const AccessResult w = f_.write(3, a);
  EXPECT_EQ(w.latency, 1u);
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 1u);
}

TEST_F(AdTest, DoesNotTagSingleProcessorLoadStore) {
  // Paper §1: "migratory sharing techniques fail to detect single
  // load-store sequences to uncached memory blocks."
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);  // Only one copy: no detection.
  EXPECT_FALSE(f_.dir(a).tagged);
  f_.force_eviction(1, a);
  (void)f_.read(1, a);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kShared);  // Not exclusive.
}

TEST_F(AdTest, DoesNotTagReplacementBrokenSequences) {
  // Paper §3.1: "if a block actually do migrate, but is replaced from the
  // owning processor's cache before being accessed by a load-store
  // sequence by another processor" AD loses the detection opportunity.
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  f_.force_eviction(1, a);  // Dirty copy written back, home Uncached.
  (void)f_.read(2, a);      // Cold shared read: only {2} caches it.
  (void)f_.write(2, a);     // Others empty: no migratory evidence.
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 0u);
}

TEST_F(AdTest, ThreeSharersBlockDetection) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.read(3, a);
  (void)f_.write(2, a);  // Others == {1, 3}: not migratory.
  EXPECT_FALSE(f_.dir(a).tagged);
}

TEST_F(AdTest, ForeignReadOnUnwrittenExclusiveDetags) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.write(2, a);  // Tag migratory.
  (void)f_.read(3, a);   // Exclusive (LStemp) at 3.
  (void)f_.read(0, a);   // Second reader before the write: not migratory.
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kShared);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kShared);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(AdTest, WriteWriteMigrationNotDetected) {
  // Dirty at the last writer, write miss from another node: the data
  // moves, but without a read-then-write pattern Stenström's detection
  // (which fires at ownership acquisitions only) stays silent.
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.write(2, a);
  EXPECT_FALSE(f_.dir(a).tagged);
}

TEST_F(AdTest, RedetectionAfterDetag) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.write(2, a);  // Tag.
  (void)f_.read(3, a);
  (void)f_.read(0, a);   // De-tag.
  EXPECT_FALSE(f_.dir(a).tagged);
  // A clean migratory episode re-detects.
  (void)f_.write(3, a);  // Invalidates sharers {0, 3}\{3} = {0}... others
                         // also include 0; last writer is 2 -> no tag yet.
  (void)f_.read(0, a);
  (void)f_.write(0, a);  // Others == {3} == {last_writer}: tag again.
  EXPECT_TRUE(f_.dir(a).tagged);
}

TEST_F(AdTest, ReplacementDropsMigratoryProperty) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.write(2, a);  // Tag migratory (dirty at 2).
  EXPECT_TRUE(f_.dir(a).tagged);
  f_.force_eviction(2, a);  // Owning copy replaced: chain broken.
  EXPECT_FALSE(f_.dir(a).tagged);
  (void)f_.read(3, a);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kShared);  // Not exclusive.
}

TEST_F(AdTest, ReplacementKeepsTagWhenKnobDisabled) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kAd);
  cfg.protocol.ad_detag_on_replacement = false;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.write(1, a);
  (void)f.read(2, a);
  (void)f.write(2, a);  // Tag.
  f.force_eviction(2, a);
  EXPECT_TRUE(f.dir(a).tagged);
  (void)f.read(3, a);
  EXPECT_EQ(f.state_of(3, a), CacheState::kLStemp);
}

TEST_F(AdTest, MultiInvalidationUpgradeDeDetects) {
  // Stenström: a write invalidating several copies shows the block is
  // read-shared, reverting the migratory property.
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.write(2, a);  // Tag.
  (void)f_.read(0, a);   // De-tags (foreign read on LStemp)... re-arm:
  (void)f_.read(1, a);
  (void)f_.read(3, a);
  // Now Shared by {0, 1, 3} (and 2 was downgraded). Upgrade by 0:
  (void)f_.write(0, a);
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_GE(f_.stats().invalidations_sent, 2u);
}

TEST_F(AdTest, ReplacementOfSharedCopyKeepsTag) {
  const Addr a = f_.on_home(0);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  (void)f_.write(2, a);  // Tag; dirty at 2.
  (void)f_.read(3, a);   // Exclusive (LStemp) at 3, still tagged.
  EXPECT_TRUE(f_.dir(a).tagged);
  // A *shared* bystander's replacement elsewhere must not de-tag: fill
  // node 0 with an unrelated shared block in the same set and evict it.
  const Addr other = f_.on_home(0, 1024);
  (void)f_.read(0, other);
  f_.force_eviction(0, other);
  EXPECT_TRUE(f_.dir(a).tagged);
}

TEST_F(AdTest, AdNeverSendsNotLsForUntaggedBlocks) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  (void)f_.read(2, a);
  EXPECT_EQ(f_.stats().notls_messages, 0u);
}

}  // namespace
}  // namespace lssim

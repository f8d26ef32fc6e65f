// The paper's LS protocol extension (§3, §3.1, Figure 1).
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

class LsTest : public ::testing::Test {
 protected:
  LsTest() : f_(ProtocolFixture::tiny(ProtocolKind::kLs)) {}
  ProtocolFixture f_;
};

TEST_F(LsTest, UpgradeByLastReaderTagsBlock) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);   // LR := 1.
  (void)f_.write(1, a);  // Ownership request from LR -> tag LS.
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(f_.stats().blocks_tagged, 1u);
}

TEST_F(LsTest, UpgradeByOtherReaderDoesNotTag) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.read(2, a);   // LR := 2.
  (void)f_.write(1, a);  // Writer != LR: intervening access detected.
  EXPECT_FALSE(f_.dir(a).tagged);
}

TEST_F(LsTest, TaggedReadReturnsExclusiveLStemp) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);  // Tag.
  (void)f_.read(2, a);   // Dirty + tagged: migrate exclusively.
  EXPECT_EQ(f_.state_of(2, a), CacheState::kLStemp);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kInvalid);
  EXPECT_EQ(f_.dir(a).state, DirState::kExcl);
  EXPECT_EQ(f_.dir(a).owner, 2);
  EXPECT_EQ(f_.stats().exclusive_read_replies, 1u);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsTest, WriteOnLStempIsLocalAndEliminatesOwnership) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  (void)f_.read(2, a);  // LStemp at node 2.
  const std::uint64_t msgs_before = f_.stats().messages_total();
  const AccessResult w = f_.write(2, a, 5);
  EXPECT_EQ(w.latency, 1u);  // Pure L1 hit: zero write stall.
  EXPECT_EQ(f_.stats().messages_total(), msgs_before);  // Zero traffic.
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 1u);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kModified);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsTest, MigratoryChainStaysOptimized) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);  // Tag.
  for (NodeId n : {NodeId{2}, NodeId{3}, NodeId{0}, NodeId{1}}) {
    (void)f_.read(n, a);
    (void)f_.write(n, a, n);
  }
  // Every write after tagging was local: 4 eliminations.
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 4u);
  EXPECT_TRUE(f_.dir(a).tagged);
}

TEST_F(LsTest, ReplacementBrokenSequenceStillTags) {
  // The paper's key advantage over AD: read, capacity eviction, then the
  // write arrives as a write miss from LR -> still a load-store sequence.
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  f_.force_eviction(1, a);
  (void)f_.write(1, a);  // Write miss, source == LR -> tag.
  EXPECT_TRUE(f_.dir(a).tagged);
}

TEST_F(LsTest, SingleProcessorLoadStoreToUncachedTags) {
  // Migratory techniques need two processors; LS tags even a lone
  // read-then-write (paper §1: "migratory sharing techniques fail to
  // detect single load-store sequences to uncached memory blocks").
  const Addr a = f_.on_home(2);
  (void)f_.read(0, a);
  (void)f_.write(0, a);
  EXPECT_TRUE(f_.dir(a).tagged);
  // Next read (after eviction) returns an exclusive copy.
  f_.force_eviction(0, a);
  (void)f_.read(0, a);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kLStemp);
}

TEST_F(LsTest, UncachedTaggedReadGoesToLoadStoreState) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);  // Tag; dirty at 1.
  f_.force_eviction(1, a);  // Dirty -> Repl -> Uncached, LS bit kept.
  EXPECT_EQ(f_.dir(a).state, DirState::kUncached);
  EXPECT_TRUE(f_.dir(a).tagged);
  (void)f_.read(3, a);  // Figure 1: Uncached --Read(LS=1)--> Load-Store.
  EXPECT_EQ(f_.dir(a).state, DirState::kExcl);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kLStemp);
}

TEST_F(LsTest, ForeignReadOnLStempDetagsAndShares) {
  // Paper §3.1 case 2: block read by another processor while LStemp.
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  (void)f_.read(2, a);  // LStemp at 2.
  (void)f_.read(3, a);  // Foreign read before the owning write.
  EXPECT_EQ(f_.state_of(2, a), CacheState::kShared);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kShared);
  EXPECT_EQ(f_.dir(a).state, DirState::kShared);
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(f_.stats().blocks_detagged, 1u);
  EXPECT_EQ(f_.stats().notls_messages, 1u);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsTest, ForeignWriteOnLStempDetags) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  (void)f_.read(2, a);   // LStemp at 2.
  (void)f_.write(3, a);  // Foreign write miss.
  EXPECT_EQ(f_.state_of(2, a), CacheState::kInvalid);
  EXPECT_EQ(f_.state_of(3, a), CacheState::kModified);
  EXPECT_FALSE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsTest, LoneWriteMissDetags) {
  // Paper §3.1: de-tag when the home receives a write request from a
  // processor not holding a copy (and not preceded by its own read).
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);  // Tagged; dirty at 1.
  EXPECT_TRUE(f_.dir(a).tagged);
  (void)f_.write(2, a);  // Node 2 writes without reading.
  EXPECT_FALSE(f_.dir(a).tagged);
}

TEST_F(LsTest, KeepTagOnLoneWriteHeuristic) {
  // §5.5 variation: keep the LS bit on a lone ownership request.
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.protocol.keep_tag_on_lone_write = true;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a);
  (void)f.write(2, a);
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST_F(LsTest, LStempReplacementKeepsLsBit) {
  // Paper §3.1 case 3: eviction of an LStemp block; memory keeps the LS
  // bit and the home returns to Uncached.
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);
  (void)f_.read(2, a);  // LStemp at 2.
  f_.force_eviction(2, a);
  EXPECT_EQ(f_.dir(a).state, DirState::kUncached);
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(LsTest, ReadMissClassifiedCleanExclusive) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a);     // Tag; dirty at 1.
  (void)f_.read(2, a);      // Miss on DirtyExcl (modified at 1, tagged).
  f_.force_eviction(2, a);  // LStemp replaced; home Uncached + tagged.
  (void)f_.read(2, a);      // Miss on CleanExcl.
  const auto& by_state = f_.stats().read_miss_home_state;
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kDirtyExcl)], 1u);
  EXPECT_EQ(by_state[static_cast<int>(HomeStateAtMiss::kCleanExcl)], 1u);
}

TEST_F(LsTest, DefaultTaggedGivesExclusiveColdReads) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.protocol.default_tagged = true;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  EXPECT_EQ(f.state_of(1, a), CacheState::kLStemp);
  const AccessResult w = f.write(1, a);
  EXPECT_EQ(w.latency, 1u);
  EXPECT_EQ(f.stats().eliminated_acquisitions, 1u);
}

TEST_F(LsTest, TagHysteresisRequiresTwoSequences) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.protocol.tag_hysteresis = 2;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a);
  EXPECT_FALSE(f.dir(a).tagged);  // First qualifying event only arms it.
  // A second *global* load-store sequence is needed: evict so the next
  // read/write pair reaches the home again.
  f.force_eviction(1, a);
  (void)f.read(1, a);
  (void)f.write(1, a);
  EXPECT_TRUE(f.dir(a).tagged);
}

TEST_F(LsTest, DetagHysteresisSurvivesOneForeignRead) {
  MachineConfig cfg = ProtocolFixture::tiny(ProtocolKind::kLs);
  cfg.protocol.detag_hysteresis = 2;
  ProtocolFixture f(cfg);
  const Addr a = f.on_home(0);
  (void)f.read(1, a);
  (void)f.write(1, a);  // Tag.
  (void)f.read(2, a);   // LStemp at 2.
  (void)f.read(3, a);   // Foreign read: first de-tag event.
  EXPECT_TRUE(f.dir(a).tagged);  // Still tagged (hysteresis 2).
}

TEST_F(LsTest, WriteUpgradeAfterReadOnSharedBlockTagsButInvalidates) {
  // Read-shared block written by the last reader: tagging happens, other
  // sharers are invalidated normally (this is the mis-tagging risk that
  // raises OLTP read misses, paper §5.4).
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.read(2, a);
  (void)f_.read(3, a);  // LR := 3.
  (void)f_.write(3, a);
  EXPECT_TRUE(f_.dir(a).tagged);
  EXPECT_EQ(f_.stats().invalidations_sent, 2u);
  // Follow-up read by node 1 now migrates the block exclusively, hurting
  // the other readers.
  (void)f_.read(1, a);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kLStemp);
}

TEST_F(LsTest, LastReaderConsumedByWrite) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(2, a);  // Intervening foreign write consumes LR.
  // Node 1's write is now a lone write (its earlier read was consumed).
  (void)f_.write(1, a);
  EXPECT_FALSE(f_.dir(a).tagged);
}

TEST_F(LsTest, ValuesSurviveMigration) {
  const Addr a = f_.on_home(0);
  (void)f_.read(1, a);
  (void)f_.write(1, a, 111, 8);
  (void)f_.read(2, a);  // Exclusive migrate carries the dirty value.
  EXPECT_EQ(f_.read(2, a, 8).value, 111u);
  (void)f_.write(2, a, 222, 8);
  (void)f_.read(3, a);
  EXPECT_EQ(f_.read(3, a, 8).value, 222u);
}

}  // namespace
}  // namespace lssim

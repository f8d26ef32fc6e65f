// Unit tests for the CoherencePolicy hook decisions, one suite per tag
// rule (core/tag_rules.hpp) plus the rule-less base class. These drive
// the hooks directly with hand-built directory states; engine-level
// behaviour is covered by the per-protocol tests and the cross-protocol
// stress test, and protocol_table_test pins every protocol's answers.
#include <gtest/gtest.h>

#include "core/protocol_registry.hpp"
#include "core/tag_rules.hpp"

namespace lssim {
namespace {

TagRulePolicy ls_policy(const ProtocolConfig& cfg = {}) {
  return {ProtocolKind::kLs, cfg, /*ls=*/true, /*ad=*/false};
}

TagRulePolicy ad_policy(const ProtocolConfig& cfg = {}) {
  return {ProtocolKind::kAd, cfg, /*ls=*/false, /*ad=*/true};
}

TagRulePolicy ls_ad_policy(const ProtocolConfig& cfg = {}) {
  return {ProtocolKind::kLsAd, cfg, /*ls=*/true, /*ad=*/true};
}

/// A kShared directory entry with the given presence bits and history.
DirEntry shared_entry(std::uint64_t sharers, NodeId last_reader,
                      NodeId last_writer) {
  DirEntry e;
  e.state = DirState::kShared;
  e.sharers = sharers;
  e.last_reader = last_reader;
  e.last_writer = last_writer;
  return e;
}

// ---------------------------------------------------------------- Baseline

TEST(BaselinePolicyTest, IsEntirelyPassive) {
  CoherencePolicy p{ProtocolKind::kBaseline};
  EXPECT_EQ(p.kind(), ProtocolKind::kBaseline);
  EXPECT_FALSE(protocol_info(p.kind()).has_tag_rule());
  EXPECT_FALSE(p.observes_accesses());
  EXPECT_EQ(p.ils_predictor(), nullptr);

  const DirEntry e = shared_entry(0b0001, 0, kInvalidNode);
  const WriteTagDecision d = p.on_global_write(e, 0, true);
  EXPECT_EQ(d.action, TagAction::kNone);
  EXPECT_FALSE(d.lone_write_detag);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 3), TagAction::kNone);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kModified),
            TagAction::kNone);
}

TEST(BaselinePolicyTest, ReadGrantFollowsTheSharedDefaultRule) {
  // The default read_grants_exclusive is `tagged || predicted`; Baseline
  // never tags and never predicts, so in practice this always stays
  // false — but the contract itself is the shared one.
  CoherencePolicy p{ProtocolKind::kBaseline};
  DirEntry e;
  EXPECT_FALSE(p.read_grants_exclusive(e, false));
  e.tagged = true;
  EXPECT_TRUE(p.read_grants_exclusive(e, false));
  e.tagged = false;
  EXPECT_TRUE(p.read_grants_exclusive(e, true));
}

// ---------------------------------------------------------------------- LS

TEST(LsPolicyTest, TagsWhenWriterMatchesLastReader) {
  TagRulePolicy p = ls_policy();
  const DirEntry e = shared_entry(0b0010, /*last_reader=*/1,
                                  /*last_writer=*/kInvalidNode);
  // Upgrade and write miss both qualify: the LR field lives at the home
  // and does not care whether the reading copy is still resident.
  EXPECT_EQ(p.on_global_write(e, 1, true).action, TagAction::kTag);
  EXPECT_EQ(p.on_global_write(e, 1, false).action, TagAction::kTag);
}

TEST(LsPolicyTest, LoneWriteDetags) {
  TagRulePolicy p = ls_policy();
  const DirEntry e = shared_entry(0b0010, /*last_reader=*/1,
                                  /*last_writer=*/kInvalidNode);
  // Write miss from a node that did not read last: negative evidence.
  const WriteTagDecision d = p.on_global_write(e, 2, false);
  EXPECT_EQ(d.action, TagAction::kDetag);
  EXPECT_TRUE(d.lone_write_detag);
  // An upgrade from the wrong node is not a lone write: no decision.
  EXPECT_EQ(p.on_global_write(e, 2, true).action, TagAction::kNone);
}

TEST(LsPolicyTest, KeepHeuristicSuppressesLoneWriteDetag) {
  ProtocolConfig cfg;
  cfg.keep_tag_on_lone_write = true;
  TagRulePolicy p = ls_policy(cfg);
  const DirEntry e = shared_entry(0b0010, /*last_reader=*/1,
                                  /*last_writer=*/kInvalidNode);
  const WriteTagDecision d = p.on_global_write(e, 2, false);
  EXPECT_EQ(d.action, TagAction::kNone);
  EXPECT_FALSE(d.lone_write_detag);
}

TEST(LsPolicyTest, IgnoresUpgradeInvalidationsAndReplacements) {
  // LS has no read-shared de-detection and its bit survives
  // replacements: both hooks stay at the default.
  TagRulePolicy p = ls_policy();
  const DirEntry e = shared_entry(0b0111, 0, 1);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 2), TagAction::kNone);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kModified),
            TagAction::kNone);
}

// ---------------------------------------------------------------------- AD

TEST(AdPolicyTest, DetectsMigratoryHandoffAtUpgrade) {
  TagRulePolicy p = ad_policy();
  // Writer 2 upgrades; the only other copy belongs to last writer 1.
  const DirEntry e = shared_entry(0b0110, /*last_reader=*/2,
                                  /*last_writer=*/1);
  EXPECT_EQ(p.on_global_write(e, 2, true).action, TagAction::kTag);
}

TEST(AdPolicyTest, WriteMissesCarryNoEvidence) {
  TagRulePolicy p = ad_policy();
  const DirEntry e = shared_entry(0b0110, 2, 1);
  EXPECT_EQ(p.on_global_write(e, 2, false).action, TagAction::kNone);
}

TEST(AdPolicyTest, RequiresExactlyTheLastWriterAsOtherCopy) {
  TagRulePolicy p = ad_policy();
  // Two other copies: not migratory.
  EXPECT_EQ(p.on_global_write(shared_entry(0b1110, 2, 1), 2, true).action,
            TagAction::kNone);
  // One other copy, but not the last writer's.
  EXPECT_EQ(p.on_global_write(shared_entry(0b1100, 2, 1), 2, true).action,
            TagAction::kNone);
  // Writer re-writing its own block: no hand-off.
  EXPECT_EQ(p.on_global_write(shared_entry(0b0110, 2, 2), 2, true).action,
            TagAction::kNone);
  // No write history yet.
  EXPECT_EQ(p.on_global_write(shared_entry(0b0110, 2, kInvalidNode), 2,
                              true).action,
            TagAction::kNone);
}

TEST(AdPolicyTest, ImpreciseSharersBlindTheDetector) {
  TagRulePolicy p = ad_policy();
  DirEntry e = shared_entry(0b0110, 2, 1);
  e.imprecise = true;
  EXPECT_EQ(p.on_global_write(e, 2, true).action, TagAction::kNone);
}

TEST(AdPolicyTest, MultipleInvalidationsDeDetect) {
  TagRulePolicy p = ad_policy();
  const DirEntry e = shared_entry(0b0111, 0, 1);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 1), TagAction::kNone);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 2), TagAction::kDetag);
}

TEST(AdPolicyTest, ReplacementOfOwningCopyBreaksTheChain) {
  TagRulePolicy p = ad_policy();
  const DirEntry e = shared_entry(0b0010, 1, 0);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kModified),
            TagAction::kDetag);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kLStemp),
            TagAction::kDetag);
  // Replacing a mere Shared copy leaves the property alone.
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kShared),
            TagAction::kNone);
}

TEST(AdPolicyTest, ReplacementKnobCanPreserveTheTag) {
  ProtocolConfig cfg;
  cfg.ad_detag_on_replacement = false;
  TagRulePolicy p = ad_policy(cfg);
  const DirEntry e = shared_entry(0b0010, 1, 0);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kModified),
            TagAction::kNone);
}

// --------------------------------------------------------------------- ILS

TEST(IlsPolicyTest, ObservesEveryAccessAndOwnsItsPredictor) {
  IlsPolicy p{4};
  EXPECT_EQ(p.kind(), ProtocolKind::kIls);
  EXPECT_TRUE(p.observes_accesses());
  ASSERT_NE(p.ils_predictor(), nullptr);
}

TEST(IlsPolicyTest, LoadStorePairsTrainTheSiteToPredict) {
  IlsPolicy p{4};
  const std::uint32_t site = 0xBEEF;
  const Addr block = 0x100;
  // Two load→store pairs reach the default threshold of 2.
  EXPECT_FALSE(p.observe_access(0, block, site, /*is_write=*/false));
  p.observe_access(0, block, 0, /*is_write=*/true);
  EXPECT_FALSE(p.observe_access(0, block, site, false));
  p.observe_access(0, block, 0, true);
  EXPECT_TRUE(p.observe_access(0, block, site, false));
  // Training is per node: node 1's table is untouched.
  EXPECT_FALSE(p.observe_access(1, block, site, false));
}

TEST(IlsPolicyTest, UnusedGrantPenalisesTheSite) {
  IlsPolicy p{4};
  const std::uint32_t site = 0xBEEF;
  const Addr block = 0x100;
  for (int i = 0; i < 2; ++i) {
    (void)p.observe_access(0, block, site, false);
    p.observe_access(0, block, 0, true);
  }
  EXPECT_TRUE(p.observe_access(0, block, site, false));
  p.on_exclusive_grant_unused(0, site);  // Default penalty is 2.
  EXPECT_FALSE(p.observe_access(0, block, site, false));
}

TEST(IlsPolicyTest, LeavesTheDirectoryTagAlone) {
  IlsPolicy p{4};
  const DirEntry e = shared_entry(0b0010, 1, 0);
  EXPECT_EQ(p.on_global_write(e, 1, true).action, TagAction::kNone);
  // The prediction flows through read_grants_exclusive's `predicted`
  // argument, not the home's tag bit.
  DirEntry untagged;
  EXPECT_TRUE(p.read_grants_exclusive(untagged, /*predicted=*/true));
  EXPECT_FALSE(p.read_grants_exclusive(untagged, false));
}

// ------------------------------------------------------------------- LS+AD

TEST(LsAdHybridPolicyTest, LsRuleDominates) {
  TagRulePolicy p = ls_ad_policy();
  const DirEntry e = shared_entry(0b0010, /*last_reader=*/1,
                                  /*last_writer=*/kInvalidNode);
  EXPECT_EQ(p.on_global_write(e, 1, true).action, TagAction::kTag);
  EXPECT_EQ(p.on_global_write(e, 1, false).action, TagAction::kTag);
}

TEST(LsAdHybridPolicyTest, AdFallbackFiresAtUpgradesOnly) {
  TagRulePolicy p = ls_ad_policy();
  // LR missed the sequence (points elsewhere) but AD's evidence holds:
  // writer 2's only co-sharer is last writer 1.
  const DirEntry e = shared_entry(0b0110, /*last_reader=*/3,
                                  /*last_writer=*/1);
  EXPECT_EQ(p.on_global_write(e, 2, true).action, TagAction::kTag);
  // A write miss has no read→write evidence: the LS lone-write rule
  // takes over and de-tags instead.
  const WriteTagDecision miss = p.on_global_write(e, 2, false);
  EXPECT_EQ(miss.action, TagAction::kDetag);
  EXPECT_TRUE(miss.lone_write_detag);
}

TEST(LsAdHybridPolicyTest, ImpreciseSharersDisableTheFallback) {
  TagRulePolicy p = ls_ad_policy();
  DirEntry e = shared_entry(0b0110, 3, 1);
  e.imprecise = true;
  EXPECT_EQ(p.on_global_write(e, 2, true).action, TagAction::kNone);
}

TEST(LsAdHybridPolicyTest, UnionOfNegativeEvidence) {
  TagRulePolicy p = ls_ad_policy();
  // AD's read-shared de-detection...
  const DirEntry e = shared_entry(0b0111, 0, 1);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 2), TagAction::kDetag);
  EXPECT_EQ(p.on_upgrade_invalidations(e, 1), TagAction::kNone);
  // ...plus LS's lone-write de-tag, which the §5.5 knob can disable.
  ProtocolConfig keep;
  keep.keep_tag_on_lone_write = true;
  TagRulePolicy keeper = ls_ad_policy(keep);
  const DirEntry lone = shared_entry(0b0010, 1, kInvalidNode);
  EXPECT_EQ(keeper.on_global_write(lone, 2, false).action, TagAction::kNone);
}

TEST(LsAdHybridPolicyTest, TagSurvivesReplacementLikeLs) {
  // ad_detag_on_replacement defaults to true, but the hybrid's bit is
  // home-resident: replacements must not drop it.
  TagRulePolicy p = ls_ad_policy();
  const DirEntry e = shared_entry(0b0010, 1, 0);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kModified),
            TagAction::kNone);
  EXPECT_EQ(p.on_victim_writeback(e, CacheState::kLStemp),
            TagAction::kNone);
}

}  // namespace
}  // namespace lssim

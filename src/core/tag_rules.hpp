// The tag rules: when a block gets tagged, and so read exclusive. A
// protocol's registry row (core/protocol_registry.hpp) names one rule and
// the base protocol under it; the rule is independent of the base, as the
// paper presents LS as an extension of a write-invalidate protocol.
//
//   * LS (§3.1, Nilsson & Dahlgren): the home tags a block when an
//     ownership request's source equals the LR (last reader) field, and a
//     write miss not preceded by the writer's own read de-tags it (unless
//     the §5.5 keep heuristic is on). The bit lives at the home and
//     survives replacements.
//   * AD (Stenström, Brorsson & Sandberg, ISCA'93): an upgrade whose only
//     other copy belongs to the last writer is a migratory hand-off and
//     tags; an upgrade invalidating several copies de-tags (read-shared),
//     and so does replacing the owning copy (the hand-off chain breaks).
//   * LS+AD (the paper's §6 combination): LS first, AD's detection as a
//     fallback at upgrades the LR field cannot see, and the union of both
//     rules' de-tag evidence; the home-resident bit survives replacement.
//   * ILS (Kaxiras & Goodman HPCA'99): no tag at all; per-node predictor
//     tables keyed by static access site request exclusive reads.
#pragma once

#include "core/coherence_policy.hpp"
#include "core/ils_predictor.hpp"

namespace lssim {

/// The LS, AD and LS+AD tag rules over any base protocol.
class TagRulePolicy : public CoherencePolicy {
 public:
  TagRulePolicy(ProtocolKind kind, const ProtocolConfig& config, bool ls,
                bool ad) noexcept
      : CoherencePolicy(kind),
        ls_(ls),
        ad_(ad),
        keep_tag_on_lone_write_(config.keep_tag_on_lone_write),
        detag_on_replacement_(ad && !ls && config.ad_detag_on_replacement) {}

  /// LS evidence dominates; AD's detection needs an upgrade (a write miss
  /// carries no read-then-write evidence); an LS lone write de-tags.
  WriteTagDecision on_global_write(const DirEntry& entry, NodeId writer,
                                   bool upgrade) override {
    if (ls_ && entry.last_reader == writer) {
      return {TagAction::kTag, false, TagReason::kLsSequence};
    }
    if (ad_ && upgrade && migratory_evidence(entry, writer)) {
      return {TagAction::kTag, false,
              ls_ ? TagReason::kMigratoryFallback
                  : TagReason::kMigratoryDetect};
    }
    if (ls_ && !upgrade && !keep_tag_on_lone_write_) {
      return {TagAction::kDetag, true, TagReason::kLoneWrite};
    }
    return {};
  }

  /// AD de-detection: a write invalidating several copies is evidence the
  /// block is read-shared, not migratory.
  [[nodiscard]] TagAction on_upgrade_invalidations(
      const DirEntry& entry, int count) const override {
    (void)entry;
    return ad_ && count >= 2 ? TagAction::kDetag : TagAction::kNone;
  }

  /// AD alone: replacing the owning copy breaks the hand-off chain
  /// (ad_detag_on_replacement). With LS on, the bit survives.
  [[nodiscard]] TagAction on_victim_writeback(
      const DirEntry& entry, CacheState victim_state) const override {
    (void)entry;
    return detag_on_replacement_ && victim_state != CacheState::kShared
               ? TagAction::kDetag
               : TagAction::kNone;
  }

 private:
  /// AD's migratory evidence at an ownership upgrade: exactly one other
  /// believed sharer, and it is the previous writer — a read→write
  /// hand-off. Imprecise entries (pointer overflow, coarse regions)
  /// yield no evidence: the believed set is a superset, so "exactly one
  /// other sharer" cannot be trusted.
  [[nodiscard]] bool migratory_evidence(const DirEntry& entry,
                                        NodeId writer) const {
    if (entry.imprecise || entry.last_writer == kInvalidNode ||
        entry.last_writer == writer) {
      return false;
    }
    if (directory_ == nullptr) {
      // Standalone fallback: interpret the word as a full-map bitmap.
      if (writer >= kFullMapNodes || entry.last_writer >= kFullMapNodes) {
        return false;
      }
      const std::uint64_t others =
          entry.sharers & ~(std::uint64_t{1} << writer);
      return others == (std::uint64_t{1} << entry.last_writer);
    }
    SharerSet others = directory_->believed_sharers(entry);
    others.reset(writer);
    return others.is_only(entry.last_writer);
  }

  bool ls_;
  bool ad_;
  bool keep_tag_on_lone_write_;
  bool detag_on_replacement_;
};

/// ILS: trains on stores, predicts on loads; the directory's tag bit is
/// left alone.
class IlsPolicy final : public CoherencePolicy {
 public:
  explicit IlsPolicy(int num_nodes)
      : CoherencePolicy(ProtocolKind::kIls), predictor_(num_nodes) {}

  [[nodiscard]] bool observes_accesses() const noexcept override {
    return true;
  }

  /// A load from a site whose confidence passed the threshold requests
  /// an exclusive copy.
  bool observe_access(NodeId node, Addr block, std::uint32_t site,
                      bool is_write) override {
    if (is_write) {
      predictor_.on_store(node, block);
      return false;
    }
    return predictor_.on_load(node, block, site);
  }

  /// An unused grant (downgraded, invalidated or replaced before the
  /// owning write) penalises the site that predicted it.
  void on_exclusive_grant_unused(NodeId node, std::uint32_t site) override {
    predictor_.on_misprediction(node, site);
  }

  [[nodiscard]] IlsPredictor* ils_predictor() noexcept override {
    return &predictor_;
  }

 private:
  IlsPredictor predictor_;
};

}  // namespace lssim

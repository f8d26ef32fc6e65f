#include "core/protocol_registry.hpp"

#include <cassert>

#include "core/tag_rules.hpp"

namespace lssim {
namespace {

constexpr BaseProtocol kInvalidate{};
constexpr BaseProtocol kIllinois{.cold_exclusive = true};
constexpr BaseProtocol kMoesiBase{.cold_exclusive = true,
                                  .owner_keeps = true};
constexpr BaseProtocol kDragonBase{
    .cold_exclusive = true, .owner_keeps = true, .updates = true};

// THE registration site: one row per protocol, in ProtocolKind order.
const ProtocolInfo kRegistry[kNumProtocolKinds] = {
    {ProtocolKind::kBaseline,
     "DASH-like full-map write-invalidate (no load-store optimization)",
     TagRule::kNone, kInvalidate},
    {ProtocolKind::kAd,
     "adaptive migratory detection (Stenström et al., ISCA'93)",
     TagRule::kAd, kInvalidate},
    {ProtocolKind::kLs,
     "the paper's load-store extension (home-resident LS bit)",
     TagRule::kLs, kInvalidate},
    {ProtocolKind::kIls,
     "instruction-centric load-exclusive prediction (per-site tables)",
     TagRule::kIls, kInvalidate},
    {ProtocolKind::kLsAd,
     "LS tagging with AD's migratory fallback (paper §6 combination)",
     TagRule::kLsAd, kInvalidate},
    {ProtocolKind::kMesi,
     "classic MESI / Illinois (exclusive-clean cold reads, no tagging)",
     TagRule::kNone, kIllinois},
    {ProtocolKind::kMoesi,
     "MESI plus Owned: dirty owner services read misses cache-to-cache",
     TagRule::kNone, kMoesiBase},
    {ProtocolKind::kDragon,
     "Dragon write-update: writes push data to surviving sharers",
     TagRule::kNone, kDragonBase},
    {ProtocolKind::kLsMesi, "the paper's LS tagging composed over a MESI base",
     TagRule::kLs, kIllinois},
    {ProtocolKind::kLsDragon,
     "LS tagging over Dragon: tagged blocks migrate instead of updating",
     TagRule::kLs, kDragonBase},
};

}  // namespace

std::span<const ProtocolInfo> registered_protocols() { return kRegistry; }

const ProtocolInfo& protocol_info(ProtocolKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  assert(index < std::size(kRegistry) && kRegistry[index].kind == kind);
  return kRegistry[index];
}

std::unique_ptr<CoherencePolicy> make_policy(const MachineConfig& config) {
  const ProtocolKind kind = config.protocol.kind;
  const TagRule rule = protocol_info(kind).rule;
  switch (rule) {
    case TagRule::kNone:
      return std::make_unique<CoherencePolicy>(kind);
    case TagRule::kLs:
    case TagRule::kAd:
    case TagRule::kLsAd:
      return std::make_unique<TagRulePolicy>(kind, config.protocol,
                                             rule != TagRule::kAd,
                                             rule != TagRule::kLs);
    case TagRule::kIls:
      return std::make_unique<IlsPolicy>(config.num_nodes);
  }
  return nullptr;
}

}  // namespace lssim

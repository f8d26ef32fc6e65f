#include "core/protocol_registry.hpp"

#include <cassert>

#include "core/policies/ad_policy.hpp"
#include "core/policies/baseline_policy.hpp"
#include "core/policies/dragon_policy.hpp"
#include "core/policies/ils_policy.hpp"
#include "core/policies/ls_ad_hybrid_policy.hpp"
#include "core/policies/ls_dragon_policy.hpp"
#include "core/policies/ls_mesi_policy.hpp"
#include "core/policies/ls_policy.hpp"
#include "core/policies/mesi_policy.hpp"
#include "core/policies/moesi_policy.hpp"

namespace lssim {
namespace {

template <typename Policy>
std::unique_ptr<CoherencePolicy> make_from_protocol(
    const MachineConfig& config) {
  return std::make_unique<Policy>(config.protocol);
}

std::unique_ptr<CoherencePolicy> make_baseline(const MachineConfig&) {
  return std::make_unique<BaselinePolicy>();
}

template <typename Policy>
std::unique_ptr<CoherencePolicy> make_simple(const MachineConfig&) {
  return std::make_unique<Policy>();
}

std::unique_ptr<CoherencePolicy> make_ils(const MachineConfig& config) {
  return std::make_unique<IlsPolicy>(config.num_nodes);
}

// THE registration site: one row per protocol, in ProtocolKind order.
const ProtocolInfo kRegistry[kNumProtocolKinds] = {
    {ProtocolKind::kBaseline,
     "DASH-like full-map write-invalidate (no load-store optimization)",
     &make_baseline},
    {ProtocolKind::kAd,
     "adaptive migratory detection (Stenström et al., ISCA'93)",
     &make_from_protocol<AdPolicy>},
    {ProtocolKind::kLs,
     "the paper's load-store extension (home-resident LS bit)",
     &make_from_protocol<LsPolicy>},
    {ProtocolKind::kIls,
     "instruction-centric load-exclusive prediction (per-site tables)",
     &make_ils},
    {ProtocolKind::kLsAd,
     "LS tagging with AD's migratory fallback (paper §6 combination)",
     &make_from_protocol<LsAdHybridPolicy>},
    {ProtocolKind::kMesi,
     "classic MESI / Illinois (exclusive-clean cold reads, no tagging)",
     &make_simple<MesiPolicy>},
    {ProtocolKind::kMoesi,
     "MESI plus Owned: dirty owner services read misses cache-to-cache",
     &make_simple<MoesiPolicy>},
    {ProtocolKind::kDragon,
     "Dragon write-update: writes push data to surviving sharers",
     &make_simple<DragonPolicy>},
    {ProtocolKind::kLsMesi, "the paper's LS tagging composed over a MESI base",
     &make_from_protocol<LsMesiPolicy>},
    {ProtocolKind::kLsDragon,
     "LS tagging over Dragon: tagged blocks migrate instead of updating",
     &make_from_protocol<LsDragonPolicy>},
};

}  // namespace

std::span<const ProtocolInfo> registered_protocols() { return kRegistry; }

const ProtocolInfo& protocol_info(ProtocolKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  assert(index < std::size(kRegistry) && kRegistry[index].kind == kind);
  return kRegistry[index];
}

std::unique_ptr<CoherencePolicy> make_policy(const MachineConfig& config) {
  return protocol_info(config.protocol.kind).make(config);
}

}  // namespace lssim

// The kind-keyed protocol registry: complete coverage of every
// ProtocolKind and working factories; and the kProtocolNames table it
// takes names from: exact round-trips and case-insensitive aliases.
#include "core/protocol_registry.hpp"

#include <gtest/gtest.h>

#include "core/ils_predictor.hpp"

namespace lssim {
namespace {

TEST(ProtocolRegistryTest, EveryKindIsRegisteredInEnumOrder) {
  const auto protocols = registered_protocols();
  ASSERT_EQ(protocols.size(), static_cast<std::size_t>(kNumProtocolKinds));
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const ProtocolInfo& info = protocols[i];
    EXPECT_EQ(static_cast<std::size_t>(info.kind), i);
    EXPECT_NE(info.summary, nullptr);
    EXPECT_NE(info.summary[0], '\0') << to_string(info.kind);
    ASSERT_NE(info.make, nullptr) << to_string(info.kind);
  }
}

TEST(ProtocolRegistryTest, FactoriesBuildTheMatchingPolicy) {
  for (const ProtocolInfo& info : registered_protocols()) {
    MachineConfig cfg;
    cfg.protocol.kind = info.kind;
    const auto policy = info.make(cfg);
    ASSERT_NE(policy, nullptr) << to_string(info.kind);
    EXPECT_EQ(policy->kind(), info.kind) << to_string(info.kind);
  }
}

TEST(ProtocolRegistryTest, MakePolicyResolvesTheConfiguredKind) {
  MachineConfig cfg;
  cfg.protocol.kind = ProtocolKind::kLsAd;
  EXPECT_EQ(make_policy(cfg)->kind(), ProtocolKind::kLsAd);
  cfg.protocol.kind = ProtocolKind::kIls;
  const auto ils = make_policy(cfg);
  EXPECT_EQ(ils->kind(), ProtocolKind::kIls);
  EXPECT_NE(ils->ils_predictor(), nullptr);
}

TEST(ProtocolRegistryTest, FindProtocolMatchesNamesAndAliases) {
  const auto find = [](const char* name) {
    ProtocolKind kind;
    return kProtocolNames.parse(name, &kind) ? static_cast<int>(kind) : -1;
  };
  // Canonical names, any case.
  for (const ProtocolInfo& info : registered_protocols()) {
    EXPECT_EQ(find(to_string(info.kind)), static_cast<int>(info.kind));
  }
  EXPECT_EQ(find("baseline"), static_cast<int>(ProtocolKind::kBaseline));
  EXPECT_EQ(find("BASELINE"), static_cast<int>(ProtocolKind::kBaseline));
  EXPECT_EQ(find("wi"), static_cast<int>(ProtocolKind::kBaseline));
  EXPECT_EQ(find("migratory"), static_cast<int>(ProtocolKind::kAd));
  EXPECT_EQ(find("instruction"), static_cast<int>(ProtocolKind::kIls));
  EXPECT_EQ(find("ls+ad"), static_cast<int>(ProtocolKind::kLsAd));
  EXPECT_EQ(find("LS-AD"), static_cast<int>(ProtocolKind::kLsAd));
  EXPECT_EQ(find("hybrid"), static_cast<int>(ProtocolKind::kLsAd));
  EXPECT_EQ(find(""), -1);
  EXPECT_EQ(find("mesif"), -1);
}

TEST(ProtocolRegistryTest, ProtocolInfoByKind) {
  const ProtocolInfo& info = protocol_info(ProtocolKind::kLsAd);
  EXPECT_EQ(info.kind, ProtocolKind::kLsAd);
  EXPECT_STREQ(to_string(info.kind), "LS+AD");
}

TEST(ProtocolRegistryTest, RegisteredNamesJoinInOrder) {
  EXPECT_EQ(kProtocolNames.joined(),
            "Baseline, AD, LS, ILS, LS+AD, MESI, MOESI, Dragon, LS+MESI, "
            "LS+Dragon");
  EXPECT_EQ(kProtocolNames.joined(" | "),
            "Baseline | AD | LS | ILS | LS+AD | MESI | MOESI | Dragon | "
            "LS+MESI | LS+Dragon");
}

TEST(ProtocolRegistryTest, AllProtocolKindsInRegistryOrder) {
  const std::vector<ProtocolKind> kinds = all_protocol_kinds();
  ASSERT_EQ(kinds.size(), static_cast<std::size_t>(kNumProtocolKinds));
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kinds[i]), i);
  }
}

}  // namespace
}  // namespace lssim

// Instruction-centric load-exclusive prediction (kIls, extension):
// per-site training, exclusive grants, misprediction feedback.
#include <gtest/gtest.h>

#include "../coherence_check.hpp"
#include "core/ils_predictor.hpp"
#include "protocol_test_util.hpp"

namespace lssim {
namespace {

class IlsTest : public ::testing::Test {
 protected:
  IlsTest() : f_(ProtocolFixture::tiny(ProtocolKind::kIls)) {}

  AccessResult read_site(NodeId n, Addr a, std::uint32_t site) {
    AccessRequest req;
    req.op = MemOpKind::kRead;
    req.addr = a;
    req.size = 4;
    req.site = site;
    return f_.issue(n, req);
  }
  AccessResult write_site(NodeId n, Addr a, std::uint32_t site) {
    AccessRequest req;
    req.op = MemOpKind::kWrite;
    req.addr = a;
    req.size = 4;
    req.site = site;
    return f_.issue(n, req);
  }

  ProtocolFixture f_;
};

TEST_F(IlsTest, SiteTrainsOnLoadStorePairs) {
  const std::uint32_t kSite = 77;
  // Two load-then-store pairs from the same site reach the threshold.
  (void)read_site(0, f_.on_home(0, 0), kSite);
  (void)write_site(0, f_.on_home(0, 0), 1);
  EXPECT_EQ(f_.ms().predictor().confidence(0, kSite), 1);
  (void)read_site(0, f_.on_home(0, 64), kSite);
  (void)write_site(0, f_.on_home(0, 64), 1);
  EXPECT_EQ(f_.ms().predictor().confidence(0, kSite), 2);
}

TEST_F(IlsTest, ConfidentSiteGetsExclusiveCopy) {
  const std::uint32_t kSite = 5;
  for (int i = 0; i < 2; ++i) {
    (void)read_site(1, f_.on_home(0, 16 * i), kSite);
    (void)write_site(1, f_.on_home(0, 16 * i), 1);
  }
  // Third load from the trained site: exclusive (LStemp) copy.
  const Addr a = f_.on_home(0, 256);
  (void)read_site(1, a, kSite);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kLStemp);
  // The store completes locally.
  const AccessResult w = write_site(1, a, 1);
  EXPECT_EQ(w.latency, 1u);
  EXPECT_EQ(f_.stats().eliminated_acquisitions, 1u);
  EXPECT_EQ(coherence_violations(f_.ms()), kNoViolations);
}

TEST_F(IlsTest, UntrainedSiteGetsSharedCopy) {
  const Addr a = f_.on_home(0);
  (void)read_site(2, a, 123);
  EXPECT_EQ(f_.state_of(2, a), CacheState::kShared);
}

TEST_F(IlsTest, PredictionsArePerProcessor) {
  const std::uint32_t kSite = 9;
  for (int i = 0; i < 2; ++i) {
    (void)read_site(0, f_.on_home(0, 16 * i), kSite);
    (void)write_site(0, f_.on_home(0, 16 * i), 1);
  }
  // Node 1 shares the site id (same instruction) but its table is its
  // own: no prediction until it trains locally.
  const Addr a = f_.on_home(0, 256);
  (void)read_site(1, a, kSite);
  EXPECT_EQ(f_.state_of(1, a), CacheState::kShared);
}

TEST_F(IlsTest, ForeignReadPenalisesSite) {
  const std::uint32_t kSite = 11;
  for (int i = 0; i < 2; ++i) {
    (void)read_site(0, f_.on_home(0, 16 * i), kSite);
    (void)write_site(0, f_.on_home(0, 16 * i), 1);
  }
  const Addr a = f_.on_home(0, 256);
  (void)read_site(0, a, kSite);  // Exclusive grant.
  EXPECT_EQ(f_.state_of(0, a), CacheState::kLStemp);
  (void)read_site(1, a, 999);  // Foreign read before the owning write.
  EXPECT_EQ(f_.state_of(0, a), CacheState::kShared);
  EXPECT_EQ(f_.ms().predictor().confidence(0, kSite), 0);  // 2 - 2.
  // The site no longer predicts.
  const Addr b = f_.on_home(0, 512);
  (void)read_site(0, b, kSite);
  EXPECT_EQ(f_.state_of(0, b), CacheState::kShared);
}

TEST_F(IlsTest, ReplacementOfUnusedGrantPenalisesSite) {
  const std::uint32_t kSite = 13;
  for (int i = 0; i < 2; ++i) {
    (void)read_site(0, f_.on_home(0, 16 * i), kSite);
    (void)write_site(0, f_.on_home(0, 16 * i), 1);
  }
  const Addr a = f_.on_home(0, 256);
  (void)read_site(0, a, kSite);
  EXPECT_EQ(f_.state_of(0, a), CacheState::kLStemp);
  f_.force_eviction(0, a);  // Grant never used.
  EXPECT_EQ(f_.ms().predictor().confidence(0, kSite), 0);
}

TEST_F(IlsTest, DirectoryTagNeverSetUnderIls) {
  const std::uint32_t kSite = 21;
  for (int i = 0; i < 4; ++i) {
    const Addr a = f_.on_home(0, 16 * i);
    (void)read_site(3, a, kSite);
    (void)write_site(3, a, 1);
  }
  EXPECT_EQ(f_.stats().blocks_tagged, 0u);
  f_.ms().directory().for_each([](Addr, const DirEntry& e) {
    EXPECT_FALSE(e.tagged);
  });
}

TEST_F(IlsTest, PolymorphicSiteOscillates) {
  // A site that sometimes leads to a store and sometimes reads shared
  // data (the OLTP pathology for instruction-centric techniques): the
  // confidence see-saws and mispredictions keep occurring.
  const std::uint32_t kSite = 31;
  for (int i = 0; i < 2; ++i) {
    (void)read_site(0, f_.on_home(0, 16 * i), kSite);
    (void)write_site(0, f_.on_home(0, 16 * i), 1);
  }
  // Trained; now the same site reads data that others read too.
  const Addr shared_addr = f_.on_home(0, 512);
  (void)read_site(0, shared_addr, kSite);   // Exclusive (predicted).
  (void)read_site(1, shared_addr, 888);     // Foreign read: penalty.
  EXPECT_EQ(f_.ms().predictor().confidence(0, kSite), 0);
}

TEST(IlsPredictor, UnitBehaviour) {
  IlsPredictor predictor(2, /*threshold=*/2, /*max=*/3, /*penalty=*/2);
  EXPECT_FALSE(predictor.on_load(0, 0x100, 7));
  predictor.on_store(0, 0x100);
  EXPECT_EQ(predictor.confidence(0, 7), 1);
  EXPECT_FALSE(predictor.on_load(0, 0x200, 7));
  predictor.on_store(0, 0x200);
  EXPECT_EQ(predictor.confidence(0, 7), 2);
  EXPECT_TRUE(predictor.on_load(0, 0x300, 7));
  // Confidence caps at max.
  predictor.on_store(0, 0x300);
  EXPECT_EQ(predictor.confidence(0, 7), 3);
  predictor.on_store(0, 0x300);  // No pending load: no change.
  EXPECT_EQ(predictor.confidence(0, 7), 3);
  predictor.on_misprediction(0, 7);
  EXPECT_EQ(predictor.confidence(0, 7), 1);
  predictor.on_misprediction(0, 7);
  EXPECT_EQ(predictor.confidence(0, 7), 0);
  predictor.on_misprediction(0, 7);  // Clamped at zero.
  EXPECT_EQ(predictor.confidence(0, 7), 0);
}

}  // namespace
}  // namespace lssim

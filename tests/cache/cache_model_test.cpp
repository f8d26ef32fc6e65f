// Differential fuzzing of Cache against an executable reference model:
// a trivially correct set-associative LRU built from std::list/map. Any
// divergence in hit/miss outcome or victim choice is a bug in one of
// them — and the reference is small enough to trust by inspection.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "sim/rng.hpp"

namespace lssim {
namespace {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {}

  [[nodiscard]] bool contains(Addr block) const {
    const auto it = sets_.find(set_of(block));
    if (it == sets_.end()) return false;
    for (Addr b : it->second) {
      if (b == block) return true;
    }
    return false;
  }

  void touch(Addr block) {
    auto& set = sets_[set_of(block)];
    set.remove(block);
    set.push_front(block);  // Front = most recently used.
  }

  /// Returns the evicted block, if any.
  std::optional<Addr> insert(Addr block) {
    auto& set = sets_[set_of(block)];
    std::optional<Addr> victim;
    if (set.size() == config_.assoc) {
      victim = set.back();
      set.pop_back();
    }
    set.push_front(block);
    return victim;
  }

  void erase(Addr block) { sets_[set_of(block)].remove(block); }

 private:
  [[nodiscard]] std::uint64_t set_of(Addr block) const {
    return (block / config_.block_bytes) % config_.num_sets();
  }

  CacheConfig config_;
  std::map<std::uint64_t, std::list<Addr>> sets_;
};

struct Geometry {
  std::uint32_t size;
  std::uint32_t assoc;
  std::uint32_t block;
};

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& info) {
  return "s" + std::to_string(info.param.size) + "w" +
         std::to_string(info.param.assoc) + "b" +
         std::to_string(info.param.block);
}

class CacheModelTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheModelTest, MatchesReferenceOverRandomOps) {
  const Geometry g = GetParam();
  const CacheConfig config{g.size, g.assoc, g.block};
  Cache cache(config);
  ReferenceCache reference(config);
  Rng rng(g.size * 31 + g.assoc * 7 + g.block);

  const Addr footprint = static_cast<Addr>(g.size) * 4;
  for (int op = 0; op < 20000; ++op) {
    const Addr block =
        (rng.next_below(footprint) / g.block) * g.block;
    const int what = static_cast<int>(rng.next_below(10));
    const bool hit = cache.find(block) != nullptr;
    ASSERT_EQ(hit, reference.contains(block))
        << "op " << op << " block " << block;
    if (what < 6) {
      // Access: insert on miss, touch on hit.
      if (hit) {
        cache.touch(*cache.find(block));
        reference.touch(block);
      } else {
        const CacheLine victim = cache.insert(block, CacheState::kShared);
        const auto ref_victim = reference.insert(block);
        ASSERT_EQ(victim.valid(), ref_victim.has_value()) << "op " << op;
        if (ref_victim) {
          ASSERT_EQ(victim.block, *ref_victim) << "op " << op;
        }
      }
    } else if (what < 8) {
      // Invalidate.
      cache.invalidate(block);
      reference.erase(block);
    } else if (what < 9) {
      // Bulk touch (a parked spinner's probes, accounted at once); of an
      // absent block it only advances the LRU clock.
      cache.touch(block, 1 + rng.next_below(1000));
      if (hit) reference.touch(block);
    } else {
      // Pure probe (done above).
    }
  }
}

// Victim order in a full 2- or 4-way set, where the LRU stamps decide,
// after single and bulk touches.
class LruOrderTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(LruOrderTest, FullSetEvictsInReverseTouchOrder) {
  const Geometry g = GetParam();
  const CacheConfig config{g.size, g.assoc, g.block};
  Cache cache(config);
  ReferenceCache reference(config);
  const Addr stride = static_cast<Addr>(config.num_sets()) * g.block;
  // Fill set 0, then touch its ways back to front, alternating single
  // and bulk touches: way 0 ends up most recently used.
  for (std::uint32_t w = 0; w < g.assoc; ++w) {
    cache.insert(w * stride, CacheState::kShared);
    reference.insert(w * stride);
  }
  for (std::uint32_t w = g.assoc; w-- > 0;) {
    if (w % 2 == 0) {
      cache.touch(*cache.find(w * stride));
    } else {
      cache.touch(w * stride, 3);
    }
    reference.touch(w * stride);
  }
  for (std::uint32_t w = 0; w < g.assoc; ++w) {
    const Addr fresh = (g.assoc + w) * stride;
    const CacheLine victim = cache.insert(fresh, CacheState::kShared);
    const auto ref_victim = reference.insert(fresh);
    ASSERT_TRUE(ref_victim.has_value());
    EXPECT_EQ(victim.block, *ref_victim) << "insert " << w;
    EXPECT_EQ(victim.block, (g.assoc - 1 - w) * stride) << "insert " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ways, LruOrderTest,
    ::testing::Values(Geometry{512, 2, 16}, Geometry{256, 4, 16},
                      Geometry{2048, 4, 32}),
    geometry_name);

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Values(Geometry{256, 1, 16}, Geometry{512, 2, 16},
                      Geometry{1024, 4, 32}, Geometry{2048, 2, 64},
                      Geometry{4096, 1, 128}, Geometry{4096, 8, 32},
                      Geometry{8192, 4, 256}),
    geometry_name);

}  // namespace
}  // namespace lssim

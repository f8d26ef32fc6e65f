#include "cache/hierarchy.hpp"

#include <cassert>

namespace lssim {

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
  assert(l1.block_bytes == l2.block_bytes);
}

void CacheHierarchy::attach_telemetry(MetricsRegistry* metrics,
                                      NodeId node) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    return;
  }
  const MetricLabels labels{{"node", std::to_string(node)}};
  l2_fills_ = metrics_->counter("cache.l2_fills", labels);
  l2_evictions_ = metrics_->counter("cache.l2_evictions", labels);
  l1_refills_ = metrics_->counter("cache.l1_refills", labels);
}

ProbeResult CacheHierarchy::probe(Addr block) const noexcept {
  ProbeResult result;
  if (const CacheLine* line2 = l2_.find(block)) {
    result.l2_hit = true;
    result.state = line2->state;
    result.l1_hit = l1_.find(block) != nullptr;
  }
  return result;
}

CacheLine CacheHierarchy::fill(Addr block, CacheState state) {
  assert(l2_.find(block) == nullptr);
  const CacheLine l2_victim = l2_.insert(block, state);
  if (l2_victim.valid()) {
    l1_.invalidate(l2_victim.block);  // Inclusion.
  }
  if (l1_.find(block) == nullptr) {
    (void)l1_.insert_silent(block, state);  // L1 victim silent: L2 retains it.
  }
  if (metrics_ != nullptr) {
    metrics_->add(l2_fills_);
    if (l2_victim.valid()) {
      metrics_->add(l2_evictions_);
    }
  }
  return l2_victim;
}

CacheLine* CacheHierarchy::refill_l1(const CacheLine& line2) {
  assert(l1_.find(line2.block) == nullptr);
  CacheLine* line1 = l1_.insert_silent(line2.block, line2.state);
  if (metrics_ != nullptr) {
    metrics_->add(l1_refills_);
  }
  return line1;
}

void CacheHierarchy::set_state(Addr block, CacheState state) noexcept {
  CacheLine* line2 = l2_.find(block);
  assert(line2 != nullptr);
  line2->state = state;
  if (CacheLine* line1 = l1_.find(block)) {
    line1->state = state;
  }
}

CacheLine CacheHierarchy::invalidate(Addr block) noexcept {
  l1_.invalidate(block);
  return l2_.invalidate(block);
}

bool CacheHierarchy::check_inclusion() const {
  bool ok = true;
  const_cast<Cache&>(l1_).for_each_valid([&](const CacheLine& line1) {
    const CacheLine* line2 = l2_.find(line1.block);
    if (line2 == nullptr || line2->state != line1.state) {
      ok = false;
    }
  });
  return ok;
}

}  // namespace lssim

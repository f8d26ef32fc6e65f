#include "check/invariants.hpp"

#include <sstream>

#include "cache/hierarchy.hpp"
#include "core/directory.hpp"
#include "core/protocol_registry.hpp"

namespace lssim::check {
namespace {

std::string hex(Addr value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

/// The LS §3.1 tag model is exact only under the paper's default knobs:
/// immediate tag/de-tag (hysteresis depth 1) and no default tagging.
bool ls_model_applies(const MachineConfig& cfg) {
  return cfg.protocol.tag_hysteresis == 1 &&
         cfg.protocol.detag_hysteresis == 1 && !cfg.protocol.default_tagged;
}

}  // namespace

InvariantChecker::InvariantChecker(CheckerOptions options)
    : options_(options) {}

std::vector<std::string> InvariantChecker::messages() const {
  std::vector<std::string> out;
  out.reserve(violations_.size());
  for (const Violation& v : violations_) {
    out.push_back(v.message());
  }
  return out;
}

void InvariantChecker::record(std::string invariant, std::string detail) {
  ++total_violations_;
  if (violations_.size() < options_.max_violations) {
    violations_.push_back(
        Violation{std::move(invariant), std::move(detail), accesses_});
  }
}

std::uint64_t InvariantChecker::shadow_load(Addr addr, unsigned size) const {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < size; ++i) {
    const auto it = shadow_.find(addr + i);
    const std::uint64_t byte = it == shadow_.end() ? 0 : it->second;
    value |= byte << (8 * i);
  }
  return value;
}

void InvariantChecker::shadow_store(Addr addr, unsigned size,
                                    std::uint64_t value) {
  for (unsigned i = 0; i < size; ++i) {
    shadow_[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void InvariantChecker::check_data_value(const AccessRequest& req,
                                        const AccessResult& result) {
  const std::uint64_t expected = shadow_load(req.addr, req.size);
  switch (req.op) {
    case MemOpKind::kRead:
      if (result.value != expected) {
        record("data-value",
               "read of " + hex(req.addr) + " returned " +
                   hex(result.value) + ", reference memory holds " +
                   hex(expected));
      }
      break;
    case MemOpKind::kWrite:
      shadow_store(req.addr, req.size, req.wdata);
      break;
    case MemOpKind::kSwap:
      if (result.value != expected) {
        record("data-value", "swap at " + hex(req.addr) +
                                 " returned old value " + hex(result.value) +
                                 ", reference memory holds " + hex(expected));
      }
      shadow_store(req.addr, req.size, req.wdata);
      break;
    case MemOpKind::kFetchAdd:
      if (result.value != expected) {
        record("data-value", "fetch-add at " + hex(req.addr) +
                                 " returned old value " + hex(result.value) +
                                 ", reference memory holds " + hex(expected));
      }
      shadow_store(req.addr, req.size, expected + req.wdata);
      break;
    case MemOpKind::kCas:
      if (result.value != expected) {
        record("data-value", "CAS at " + hex(req.addr) +
                                 " returned old value " + hex(result.value) +
                                 ", reference memory holds " + hex(expected));
      }
      if (expected == req.expected) {
        shadow_store(req.addr, req.size, req.wdata);
      }
      break;
  }
}

void InvariantChecker::verify_block(const MemorySystem& ms, Addr b,
                                    const DirEntry& e) {
  const MachineConfig& cfg = ms.config();
  const int nodes = cfg.num_nodes;
  // A protocol without a tag rule never tags; one that also lacks the
  // Illinois cold-exclusive read never grants an LStemp copy.
  const ProtocolKind kind = ms.policy().kind();
  const ProtocolInfo& row = protocol_info(kind);
  const bool never_tags = !row.has_tag_rule();
  const bool never_grants = never_tags && !row.base.cold_exclusive;
  const std::uint8_t tag_hyst =
      cfg.protocol.tag_hysteresis == 0 ? 1 : cfg.protocol.tag_hysteresis;
  const std::uint8_t detag_hyst = cfg.protocol.detag_hysteresis == 0
                                      ? 1
                                      : cfg.protocol.detag_hysteresis;

  const DirectoryPolicy& dp = ms.directory_policy();
  {
    BlockSnapshot snap;
    snap.tagged = e.tagged;
    snap.last_reader = e.last_reader;
    int shared_copies = 0;
    int excl_copies = 0;
    int owned_copies = 0;

    for (int n = 0; n < nodes; ++n) {
      const NodeId nid = static_cast<NodeId>(n);
      const ProbeResult p = ms.cache(nid).probe(b);
      // Per-block inclusion: a valid L1 line needs a same-state L2 twin.
      if (const CacheLine* l1 = ms.cache(nid).l1().find(b)) {
        if (!p.l2_hit || l1->state != p.state) {
          record("dir-cache-agreement",
                 "node " + std::to_string(n) + " L1 holds " + hex(b) +
                     " " + to_string(l1->state) + " but L2 holds " +
                     (p.l2_hit ? to_string(p.state) : "nothing"));
        }
      }
      if (!p.l2_hit) {
        // A precise entry claims exact membership; an imprecise believed
        // set may cover caches that hold nothing.
        if (e.state == DirState::kShared && !e.imprecise &&
            dp.may_be_sharer(e, nid)) {
          record("dir-cache-agreement",
                 "directory lists node " + std::to_string(n) +
                     " as sharer of " + hex(b) + " but its cache misses");
        }
        if (e.state == DirState::kOwned && !e.imprecise &&
            (e.owner == nid || dp.may_be_sharer(e, nid))) {
          record("dir-cache-agreement",
                 "directory lists node " + std::to_string(n) +
                     " as owner/sharer of Owned " + hex(b) +
                     " but its cache misses");
        }
        continue;
      }
      switch (p.state) {
        case CacheState::kShared:
          ++shared_copies;
          snap.shared.set(nid);
          // Superset rule: a real holder the directory would not
          // invalidate is a missed invalidation, precise or not. Under
          // an Owned entry the sharer word tracks the non-owner copies.
          if ((e.state != DirState::kShared &&
               e.state != DirState::kOwned) ||
              !dp.may_be_sharer(e, nid)) {
            record("dir-cache-agreement",
                   "node " + std::to_string(n) + " holds " + hex(b) +
                       " Shared but directory is " +
                       std::string(to_string(e.state)) +
                       (dp.may_be_sharer(e, nid)
                            ? ""
                            : " and does not believe it is a sharer"));
          }
          break;
        case CacheState::kModified:
          ++excl_copies;
          snap.modified.set(nid);
          if ((e.state != DirState::kDirty && e.state != DirState::kExcl) ||
              e.owner != nid) {
            record("dir-cache-agreement",
                   "node " + std::to_string(n) + " holds " + hex(b) +
                       " Modified but directory is " +
                       std::string(to_string(e.state)) + " with owner " +
                       std::to_string(static_cast<int>(e.owner)));
          }
          break;
        case CacheState::kLStemp:
          ++excl_copies;
          snap.lstemp.set(nid);
          if (e.state != DirState::kExcl || e.owner != nid) {
            record("ls-tag",
                   "node " + std::to_string(n) + " holds " + hex(b) +
                       " in LStemp but directory is " +
                       std::string(to_string(e.state)) + " with owner " +
                       std::to_string(static_cast<int>(e.owner)));
          }
          if (never_grants) {
            record("ls-tag", std::string(to_string(kind)) +
                                 " protocol granted an LStemp copy of " +
                                 hex(b) + " to node " + std::to_string(n));
          }
          break;
        case CacheState::kOwned:
          ++owned_copies;
          snap.owned.set(nid);
          if (e.state != DirState::kOwned || e.owner != nid) {
            record("dir-cache-agreement",
                   "node " + std::to_string(n) + " holds " + hex(b) +
                       " Owned but directory is " +
                       std::string(to_string(e.state)) + " with owner " +
                       std::to_string(static_cast<int>(e.owner)));
          }
          break;
        case CacheState::kInvalid:
          break;
      }
    }

    if (excl_copies > 1 || (excl_copies == 1 && shared_copies > 0)) {
      record("swmr", "block " + hex(b) + " has " +
                         std::to_string(excl_copies) + " writable and " +
                         std::to_string(shared_copies) + " shared copies");
    }
    // Ownership relaxes SWMR to single-owner: at most one Owned copy,
    // never alongside a Modified/LStemp copy (shared copies are fine —
    // that is the point of the state).
    if (owned_copies > 1 || (owned_copies == 1 && excl_copies > 0)) {
      record("swmr", "block " + hex(b) + " has " +
                         std::to_string(owned_copies) + " Owned and " +
                         std::to_string(excl_copies) + " writable copies");
    }

    switch (e.state) {
      case DirState::kUncached:
        if (shared_copies + excl_copies + owned_copies != 0 ||
            e.sharers != 0 || e.owner != kInvalidNode) {
          record("dir-cache-agreement",
                 "Uncached block " + hex(b) + " still has copies (" +
                     std::to_string(shared_copies) + " shared, " +
                     std::to_string(excl_copies) + " writable) or stale "
                     "sharer/owner fields");
        }
        break;
      case DirState::kShared:
        // Precise entries agree exactly (and a Shared entry with no
        // copies is stale bookkeeping); imprecise ones may over-count
        // and outlive the last real copy — the per-node superset checks
        // above still catch missed invalidations.
        if ((!e.imprecise && (shared_copies != dp.believed_sharers(e).count() ||
                              shared_copies == 0)) ||
            excl_copies != 0 || owned_copies != 0 ||
            e.owner != kInvalidNode) {
          record("dir-cache-agreement",
                 "Shared block " + hex(b) + " believes " +
                     std::to_string(dp.believed_sharers(e).count()) +
                     " sharers but " + std::to_string(shared_copies) +
                     " shared / " + std::to_string(excl_copies) +
                     " writable cached copies exist (owner field " +
                     std::to_string(static_cast<int>(e.owner)) + ")");
        }
        break;
      case DirState::kDirty:
      case DirState::kExcl:
        if (e.owner == kInvalidNode || static_cast<int>(e.owner) >= nodes ||
            e.sharers != 0 || excl_copies != 1 || shared_copies != 0 ||
            owned_copies != 0) {
          record("dir-cache-agreement",
                 std::string(to_string(e.state)) + " block " + hex(b) +
                     " must have exactly one writable copy at its owner; "
                     "found " +
                     std::to_string(excl_copies) + " writable / " +
                     std::to_string(shared_copies) + " shared, owner " +
                     std::to_string(static_cast<int>(e.owner)));
        } else if (e.state == DirState::kDirty &&
                   !snap.modified.test(e.owner)) {
          record("dir-cache-agreement",
                 "Dirty block " + hex(b) + " owner " +
                     std::to_string(static_cast<int>(e.owner)) +
                     " does not hold a Modified copy");
        }
        break;
      case DirState::kOwned:
        // Exactly one Owned copy at the recorded owner; the sharer word
        // covers the non-owner shared copies (precisely, unless the
        // organisation lost precision).
        if (e.owner == kInvalidNode || static_cast<int>(e.owner) >= nodes ||
            owned_copies != 1 || excl_copies != 0 ||
            !snap.owned.test(e.owner) ||
            (!e.imprecise &&
             shared_copies != dp.believed_sharers(e).count())) {
          record("dir-cache-agreement",
                 "Owned block " + hex(b) + " must have its one Owned copy "
                     "at owner " +
                     std::to_string(static_cast<int>(e.owner)) + "; found " +
                     std::to_string(owned_copies) + " Owned / " +
                     std::to_string(excl_copies) + " writable / " +
                     std::to_string(shared_copies) + " shared copies (" +
                     std::to_string(dp.believed_sharers(e).count()) +
                     " believed sharers)");
        }
        break;
    }

    if (e.tagged && e.tag_progress != 0) {
      record("ls-tag", "tagged block " + hex(b) +
                           " kept a nonzero tag hysteresis counter");
    }
    if (!e.tagged && e.detag_progress != 0) {
      record("ls-tag", "untagged block " + hex(b) +
                           " kept a nonzero de-tag hysteresis counter");
    }
    if (e.tag_progress >= tag_hyst || e.detag_progress >= detag_hyst) {
      record("ls-tag", "block " + hex(b) +
                           " hysteresis counter passed its threshold "
                           "without firing");
    }
    if (never_tags && e.tagged) {
      record("ls-tag", std::string(to_string(kind)) +
                           " protocol tagged block " + hex(b));
    }
    if (cfg.directory_scheme == DirectoryKind::kFullMap && e.imprecise) {
      record("dir-cache-agreement",
             "full-map directory marked " + hex(b) +
                 " imprecise (the full map is always exact)");
    }

    blocks_[b] = snap;
  }
}

void InvariantChecker::full_scan(const MemorySystem& ms) {
  ms.directory().for_each(
      [&](Addr b, const DirEntry& e) { verify_block(ms, b, e); });
  const int nodes = ms.config().num_nodes;
  for (int n = 0; n < nodes; ++n) {
    const NodeId nid = static_cast<NodeId>(n);
    if (!ms.cache(nid).check_inclusion()) {
      record("dir-cache-agreement",
             "node " + std::to_string(n) + " violates L1/L2 inclusion");
    }
    // Every cached block needs a live directory entry — the sparse
    // organisation must invalidate all copies before evicting one.
    ms.cache(nid).l2().for_each_valid([&](const CacheLine& line) {
      if (ms.directory().find(line.block) == nullptr) {
        record("dir-cache-agreement",
               "node " + std::to_string(n) + " caches " + hex(line.block) +
                   " but the block has no directory entry");
      }
    });
  }
  if (ms.directory_policy().max_entries() != 0) {
    // Snapshots of sparse-evicted blocks are history the machine lost
    // (tag bit included); drop them so a re-access starts cold.
    std::erase_if(blocks_, [&](const auto& kv) {
      return ms.directory().find(kv.first) == nullptr;
    });
  }
}

void InvariantChecker::final_check(const MemorySystem& ms) {
  full_scan(ms);
}

void InvariantChecker::check_structure(const MemorySystem& ms, NodeId node,
                                       Addr block, bool is_read,
                                       const BlockSnapshot& pre) {
  const ProtocolInfo& row = protocol_info(ms.policy().kind());
  const bool sweep = options_.full_scan_interval != 0 &&
                     accesses_ % options_.full_scan_interval == 0;
  if (sweep) {
    full_scan(ms);
  } else {
    // Only blocks the transaction touched can have changed: the
    // accessed block plus the replacement victims the engine reported
    // through note_touched.
    touched_.push_back(block);
    for (std::size_t i = 0; i < touched_.size(); ++i) {
      const Addr b = touched_[i];
      bool already_done = false;
      for (std::size_t j = 0; j < i; ++j) {
        already_done = already_done || touched_[j] == b;
      }
      if (already_done) {
        continue;
      }
      if (const DirEntry* e = ms.directory().find(b)) {
        verify_block(ms, b, *e);
      } else if (ms.directory_policy().max_entries() == 0) {
        // Unbounded organisations never drop entries.
        record("dir-cache-agreement",
               "touched block " + hex(b) + " has no directory entry");
      } else {
        // Sparse organisation: the entry was evicted. Legal only if the
        // eviction invalidated every cached copy; the block's history
        // (tag bit included) is gone, so the snapshot resets too.
        for (int n = 0; n < ms.config().num_nodes; ++n) {
          if (ms.cache(static_cast<NodeId>(n)).probe(b).l2_hit) {
            record("dir-cache-agreement",
                   "evicted directory entry for " + hex(b) +
                       " left a cached copy at node " + std::to_string(n));
          }
        }
        blocks_.erase(b);
      }
    }
  }
  touched_.clear();

  // Exclusive-grant legality (paper §3 rule): data-centric tag rules
  // (LS, AD, LS+AD) over a base without cold-exclusive reads may only
  // grant an LStemp copy of a block that was tagged when the read reached
  // the home. (ILS grants from requester-side prediction, which an
  // external observer cannot reconstruct; rule-less protocols are covered
  // by the never-grants check above.)
  const bool data_centric = row.has_tag_rule() && row.rule != TagRule::kIls;
  if (is_read && data_centric && !row.base.cold_exclusive) {
    const auto post = blocks_.find(block);
    const bool fresh_grant =
        post != blocks_.end() &&
        post->second.lstemp.test(node) && !pre.lstemp.test(node);
    if (fresh_grant && !pre.tagged) {
      record("ls-tag", "read by node " + std::to_string(node) +
                           " was granted an exclusive copy of " + hex(block) +
                           " although the block was not tagged");
    }
  }
}

void InvariantChecker::check_ls_tag_model(const MemorySystem& ms, NodeId node,
                                          const AccessRequest& req, Addr block,
                                          const BlockSnapshot& pre) {
  const MachineConfig& cfg = ms.config();
  if (ms.policy().kind() != ProtocolKind::kLs || !ls_model_applies(cfg)) {
    return;
  }
  const auto post_it = blocks_.find(block);
  if (post_it == blocks_.end()) {
    return;  // Local-only access to a block the directory never saw.
  }
  const bool post_tagged = post_it->second.tagged;
  const bool had_copy = pre.shared.test(node) || pre.modified.test(node) ||
                        pre.lstemp.test(node);
  const bool writable_copy = pre.modified.test(node) || pre.lstemp.test(node);
  SharerSet foreign = pre.lstemp;
  foreign.reset(node);
  const bool foreign_lstemp = !foreign.empty();

  bool expected = pre.tagged;
  if (!req.is_write()) {
    if (!had_copy && foreign_lstemp) {
      expected = false;  // §3.1 case 2: foreign read de-tags via NotLS.
    }
  } else if (!writable_copy) {
    // Global write action: §3.1 tag/de-tag rules on the pre-state.
    const bool upgrade = pre.shared.test(node);
    bool lone_write_detag = false;
    if (pre.last_reader == node) {
      expected = true;  // Ownership request from the last reader: tag.
    } else if (!upgrade && !cfg.protocol.keep_tag_on_lone_write) {
      expected = false;  // Lone write: de-tag.
      lone_write_detag = true;
    }
    if (!upgrade && foreign_lstemp && !lone_write_detag) {
      expected = false;  // §3.1 case 2, foreign write flavour.
    }
  }
  if (post_tagged != expected) {
    record("ls-tag",
           "LS tag model disagrees on " + hex(block) + " after " +
               std::string(req.is_write() ? "write" : "read") + " by node " +
               std::to_string(node) + ": engine has " +
               (post_tagged ? "tagged" : "untagged") + ", §3.1 rules say " +
               (expected ? "tagged" : "untagged"));
  }
}

void InvariantChecker::on_access(const MemorySystem& ms, NodeId node,
                                 const AccessRequest& req,
                                 const AccessResult& result, Cycles now) {
  (void)now;
  ++accesses_;
  check_data_value(req, result);

  const Addr block =
      req.addr & ~static_cast<Addr>(ms.config().l2.block_bytes - 1);
  BlockSnapshot pre;
  const auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    pre = it->second;
  } else {
    // First global touch: a fresh entry starts tagged only under the
    // §5.5 default-tagged variation (and only for protocols with a tag
    // rule — the directory applies the same composite rule).
    pre.tagged = ms.config().protocol.default_tagged &&
                 protocol_info(ms.policy().kind()).has_tag_rule();
  }

  check_structure(ms, node, block, !req.is_write(), pre);
  check_ls_tag_model(ms, node, req, block, pre);
}

}  // namespace lssim::check

#include "core/protocol.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "check/invariants.hpp"
#include "core/directory_registry.hpp"
#include "core/protocol_registry.hpp"

namespace lssim {
namespace {

// Checked in all build types, like Network::send's self-send: an access
// the address space cannot hold would otherwise straddle two storage
// chunks and corrupt the neighbouring one.
[[noreturn]] void reject_unaligned(NodeId node, const AccessRequest& req) {
  std::ostringstream os;
  os << "MemorySystem::access: node " << int{node} << " accesses "
     << req.size << " bytes at 0x" << std::hex << req.addr << std::dec
     << "; accesses must be 1, 2, 4 or 8 bytes at a multiple of their size";
  throw std::logic_error(os.str());
}

}  // namespace

MemorySystem::MemorySystem(const MachineConfig& config, AddressSpace& space,
                           Stats& stats, Telemetry* telemetry,
                           std::unique_ptr<CoherencePolicy> policy_override)
    : cfg_(config),
      lat_(config.latency),
      space_(space),
      stats_(stats),
      policy_(policy_override != nullptr ? std::move(policy_override)
                                         : make_policy(config)),
      policy_observes_accesses_(policy_->observes_accesses()),
      dirpol_(make_directory_policy(config)),
      dir_entry_limit_(dirpol_->max_entries()),
      net_(make_interconnect(
          config, stats,
          telemetry != nullptr ? telemetry->metrics() : nullptr)),
      dir_(config.protocol.default_tagged &&
           protocol_info(policy_->kind()).has_tag_rule()),
      fs_(config.classify_false_sharing, stats),
      oracle_(true),
      telemetry_(telemetry != nullptr && telemetry->enabled() ? telemetry
                                                               : nullptr) {
  assert(config.validate().empty());
  snoops_ = net_->snoops();
  base_ = protocol_info(policy_->kind()).base;
  trust_updates_ = config.protocol.trust_update_sharers;
  fs_enabled_ = config.classify_false_sharing;
  l1_fast_hit_ = !fs_enabled_ && config.l2.assoc == 1;
  l1_lru_live_ = config.l1.assoc > 1;
  policy_->attach_directory_policy(dirpol_.get());
  if (dir_entry_limit_ != 0) {
    // Pre-size the table so entry() never rehashes: the eviction path
    // keeps the population at the bound, and a held entry reference must
    // survive a transaction (see Directory::entry).
    dir_.reserve(dir_entry_limit_);
  }
  parked_block_.assign(static_cast<std::size_t>(config.num_nodes),
                       kNotParked);
  MetricsRegistry* metrics =
      telemetry_ != nullptr ? telemetry_->metrics() : nullptr;
  caches_.reserve(static_cast<std::size_t>(config.num_nodes));
  for (int n = 0; n < config.num_nodes; ++n) {
    caches_.emplace_back(config.l1, config.l2);
    caches_.back().attach_telemetry(metrics, static_cast<NodeId>(n));
  }
  dir_.attach_telemetry(metrics);
  if (telemetry_ != nullptr) {
    telemetry_->attach_engine(config.num_nodes);
  }
}

MemorySystem::~MemorySystem() = default;

Cycles MemorySystem::leg(NodeId src, NodeId dst, MsgType type, Cycles t) {
  // Egress through the sender's controller, then the transfer.
  return leg_noegress(src, dst, type, t + lat_.controller);
}

Cycles MemorySystem::leg_noegress(NodeId src, NodeId dst, MsgType type,
                                  Cycles t) {
  if (src != dst) {
    t = net_->send(src, dst, type, t);
    t += lat_.controller;  // Ingress at the receiver.
  }
  return t;
}

Cycles MemorySystem::fan_out(NodeId home, NodeId node, Addr block,
                             const SharerSet& targets, Cycles issue,
                             SharerSet* survivors) {
  const bool update = survivors != nullptr;
  std::uint64_t& sent =
      update ? stats_.updates_sent : stats_.invalidations_sent;
  Cycles last = issue;
  targets.for_each([&](NodeId s) {
    ++sent;
    const ProbeResult sp = caches_[s].probe(block);
    if (!update) {
      if (sp.l2_hit) {
        invalidate_cached_copy(s, block);
      }
    } else {
      // Only targets that still hold a copy survive as sharers: an update
      // reaching a cache that silently evicted the block (or an imprecise
      // believed set covering non-holders) updates nothing.
      if (sp.l2_hit || trust_updates_) {
        survivors->set(s);
      }
      if (sp.l2_hit && sp.state == CacheState::kOwned) {
        set_remote_state(s, block, CacheState::kShared);
      }
      copy_changed(s, block);  // The update rewrites any copy's data.
    }
    if (snoops_) {
      return;  // The request broadcast already reached every cache.
    }
    Cycles a = leg(home, s, update ? MsgType::kUpdate : MsgType::kInval, issue);
    a += lat_.l2_access;
    a = leg(s, node, update ? MsgType::kUpdateAck : MsgType::kInvalAck, a);
    last = std::max(last, a);
    issue += lat_.controller;  // The directory issues them serially.
  });
  return last;
}

Cycles MemorySystem::supply(NodeId owner, NodeId home, NodeId node,
                            MsgType to_home, MsgType reply, Cycles t) {
  if (snoops_) {
    // One bus transfer that memory snarfs. An exclusive reply goes cache
    // to cache; a shared reply is the sharing writeback itself, which the
    // reader snarfs on its way home.
    return reply == MsgType::kDataShared
               ? leg_noegress(owner, home, to_home, t)
               : leg_noegress(owner, node, reply, t);
  }
  t = leg_noegress(owner, home, to_home, t) + lat_.memory;
  return leg(home, node, reply, t);
}

Cycles MemorySystem::forward(NodeId home, NodeId owner, MsgType type,
                             Cycles t) {
  // On a snooping transport the owner saw the request broadcast.
  return snoops_ ? t : leg(home, owner, type, t);
}

std::uint64_t MemorySystem::apply_data(const AccessRequest& req) {
  switch (req.op) {
    case MemOpKind::kRead:
      return space_.load(req.addr, req.size);
    case MemOpKind::kWrite:
      space_.store(req.addr, req.size, req.wdata);
      return 0;
    case MemOpKind::kSwap: {
      const std::uint64_t old = space_.load(req.addr, req.size);
      space_.store(req.addr, req.size, req.wdata);
      return old;
    }
    case MemOpKind::kFetchAdd: {
      const std::uint64_t old = space_.load(req.addr, req.size);
      space_.store(req.addr, req.size, old + req.wdata);
      return old;
    }
    case MemOpKind::kCas: {
      const std::uint64_t old = space_.load(req.addr, req.size);
      if (old == req.expected) {
        space_.store(req.addr, req.size, req.wdata);
      }
      return old;
    }
  }
  return 0;
}

// Tag decisions are stamped with the in-flight access's issue time.
void MemorySystem::tag_event(DirEntry& entry, TagReason reason, Addr block,
                             NodeId node) {
  // Positive evidence resets any de-tag hysteresis progress; emit the
  // reset only when it actually rewinds a counter.
  if (entry.detag_progress != 0) {
    entry.detag_progress = 0;
    emit(ProtoEventKind::kDetagProgress, node, block, current_time_, entry,
         /*end=*/0, reason);
  }
  if (entry.tagged) {
    return;
  }
  const bool crossed = ++entry.tag_progress >= cfg_.protocol.tag_hysteresis;
  if (crossed) {
    entry.tagged = true;
    entry.tag_progress = 0;
    stats_.blocks_tagged += 1;
  }
  emit(crossed ? ProtoEventKind::kTag : ProtoEventKind::kTagProgress, node,
       block, current_time_, entry, /*end=*/0, reason);
}

void MemorySystem::detag_event(DirEntry& entry, TagReason reason, Addr block,
                               NodeId node) {
  if (entry.tag_progress != 0) {
    entry.tag_progress = 0;
    emit(ProtoEventKind::kTagProgress, node, block, current_time_, entry,
         /*end=*/0, reason);
  }
  if (!entry.tagged) {
    return;
  }
  const bool crossed =
      ++entry.detag_progress >= cfg_.protocol.detag_hysteresis;
  if (crossed) {
    entry.tagged = false;
    entry.detag_progress = 0;
    stats_.blocks_detagged += 1;
  }
  emit(crossed ? ProtoEventKind::kDetag : ProtoEventKind::kDetagProgress,
       node, block, current_time_, entry, /*end=*/0, reason);
}

void MemorySystem::apply_tag_action(TagAction action, DirEntry& entry,
                                    TagReason reason, Addr block,
                                    NodeId node) {
  switch (action) {
    case TagAction::kNone:
      break;
    case TagAction::kTag:
      tag_event(entry, reason, block, node);
      break;
    case TagAction::kDetag:
      detag_event(entry, reason, block, node);
      break;
  }
}

HomeStateAtMiss MemorySystem::classify_home_state(Addr block,
                                                  const DirEntry& e) const {
  bool home_valid = true;
  if (e.state == DirState::kDirty || e.state == DirState::kOwned) {
    home_valid = false;
  } else if (e.state == DirState::kExcl) {
    const ProbeResult owner = caches_[e.owner].probe(block);
    home_valid = owner.state == CacheState::kLStemp;
  }
  if (e.tagged) {
    return home_valid ? HomeStateAtMiss::kCleanExcl
                      : HomeStateAtMiss::kDirtyExcl;
  }
  return home_valid ? HomeStateAtMiss::kClean : HomeStateAtMiss::kDirty;
}

void MemorySystem::invalidate_cached_copy(NodeId node, Addr block) {
  copy_changed(node, block);
  const CacheLine removed = caches_[node].invalidate(block);
  assert(removed.valid());
  fs_.on_line_death(node, removed);
  fs_.on_invalidated(node, block);
}

void MemorySystem::handle_l2_victim(NodeId node, const CacheLine& victim,
                                    Cycles t) {
  if (!victim.valid()) {
    return;
  }
  if (checker_ != nullptr) {
    checker_->note_touched(victim.block);
  }
  fs_.on_line_death(node, victim);
  const Addr block = victim.block;
  const NodeId home = space_.home_of(block);
  DirEntry& e = dir_.entry(block);
  // Policy decision: does replacing this copy drop the tag? (AD's
  // migratory hand-off chain breaks here; LS's home-resident bit and the
  // LS+AD hybrid survive replacements by design.)
  apply_tag_action(policy_->on_victim_writeback(e, victim.state), e,
                   TagReason::kReplacement, block, node);
  switch (victim.state) {
    case CacheState::kShared:
      assert((e.state == DirState::kShared || e.state == DirState::kOwned) &&
             dirpol_->may_be_sharer(e, node));
      dirpol_->remove_sharer(e, node);
      break;
    case CacheState::kLStemp:
      // Paper §3.1 case 3: replacement before the write; the home keeps
      // the current LS-bit value. Under ILS the unused grant penalises
      // the predicting site.
      policy_->on_exclusive_grant_unused(node, victim.grant_site);
      [[fallthrough]];
    case CacheState::kModified:
      assert((e.state == DirState::kExcl ||
              (e.state == DirState::kDirty &&
               victim.state == CacheState::kModified)) &&
             e.owner == node);
      e.state = DirState::kUncached;
      e.owner = kInvalidNode;
      break;
    case CacheState::kOwned:
      // The owner evicts its dirty copy while other caches still share
      // the block: the writeback makes home memory clean again, and the
      // entry downgrades to plain Shared over the surviving sharers.
      assert(e.state == DirState::kOwned && e.owner == node);
      e.owner = kInvalidNode;
      e.state = DirState::kShared;
      break;
    case CacheState::kInvalid:
      return;  // Unreachable: valid() was checked above.
  }
  // A Shared entry without believed sharers drops to Uncached. An Owned
  // entry stays Owned with an empty sharer set: the owner still holds the
  // dirty copy, and its next write collapses the entry to Dirty
  // (zero-target upgrade).
  if (e.state == DirState::kShared && dirpol_->believed_empty(e)) {
    e.state = DirState::kUncached;
    dirpol_->clear_sharers(e);
  }
  // A dirty copy goes home as a writeback; a clean one only as a hint.
  const bool dirty = victim.state == CacheState::kModified ||
                     victim.state == CacheState::kOwned;
  emit(dirty ? ProtoEventKind::kWriteback : ProtoEventKind::kReplHint, node,
       block, t, e);
  if (home != node) {
    net_->send(node, home, dirty ? MsgType::kWritebackData : MsgType::kReplHint,
               t);
  }
}

DirEntry& MemorySystem::dir_entry_at(Addr block, Cycles now) {
  if (dir_entry_limit_ != 0 && dir_.size() >= dir_entry_limit_ &&
      dir_.find(block) == nullptr) {
    evict_directory_entry(block, now);
  }
  return dir_.entry(block);
}

void MemorySystem::evict_directory_entry(Addr incoming, Cycles now) {
  const Addr victim = dir_.victim_for(incoming);
  DirEntry& e = dir_.entry(victim);
  const NodeId home = space_.home_of(victim);
  stats_.dir_entry_evictions += 1;
  if (checker_ != nullptr) {
    checker_->note_touched(victim);
  }
  // Eviction-forced invalidations: a block without a directory entry must
  // be uncached everywhere, so every believed sharer that still holds a
  // copy gives it up, and an owner's dirty copy is written back. Off the
  // requesting transaction's critical path; the messages still load the
  // network.
  if (e.state == DirState::kShared || e.state == DirState::kOwned) {
    SharerSet sharers = dirpol_->believed_sharers(e);
    if (e.state == DirState::kOwned) {
      // An imprecise believed set can cover the owner, whose dirty copy
      // is written back below, not purged as a sharer.
      sharers.reset(e.owner);
    }
    sharers.for_each([&](NodeId s) {
      if (!caches_[s].probe(victim).l2_hit) {
        return;
      }
      leg(home, s, MsgType::kInval, now);
      invalidate_cached_copy(s, victim);
      leg(s, home, MsgType::kInvalAck, now);
    });
  }
  if (e.state != DirState::kUncached && e.state != DirState::kShared) {
    const NodeId owner = e.owner;
    assert(owner != kInvalidNode);
    const ProbeResult op = caches_[owner].probe(victim);
    assert(op.l2_hit);
    leg(home, owner, MsgType::kInval, now);
    if (op.state == CacheState::kLStemp) {
      // The exclusive grant dies unused (predictor feedback, §3.1).
      policy_->on_exclusive_grant_unused(
          owner, caches_[owner].l2().find(victim)->grant_site);
      leg(owner, home, MsgType::kInvalAck, now);
    } else {
      assert(op.state == (e.state == DirState::kOwned ? CacheState::kOwned
                                                      : CacheState::kModified));
      leg(owner, home, MsgType::kWritebackData, now);
    }
    invalidate_cached_copy(owner, victim);
  }
  dir_.erase(victim);
}

Cycles MemorySystem::do_read_miss(NodeId node, Addr block, Cycles now,
                                  bool predicted_exclusive,
                                  std::uint32_t site) {
  const NodeId home = space_.home_of(block);
  DirEntry& e = dir_entry_at(block, now);
  // Exclusive read replies: data-centric (home tag, LS/AD),
  // instruction-centric (requester-side prediction, ILS) or the base's
  // Illinois cold read.
  const bool want_exclusive =
      policy_->read_grants_exclusive(e, predicted_exclusive) ||
      (base_.cold_exclusive && e.state == DirState::kUncached);

  stats_.global_read_misses += 1;
  stats_.data_misses += 1;
  stats_.read_miss_home_state[static_cast<std::size_t>(
      classify_home_state(block, e))] += 1;
  oracle_.on_global_read(node, block);

  Cycles t = now + lat_.l2_access;
  t = leg(node, home, MsgType::kReadReq, t);
  t += lat_.memory;  // Directory + memory lookup (parallel).

  CacheState fill_state = CacheState::kShared;

  switch (e.state) {
    case DirState::kUncached:
    case DirState::kShared: {
      // Data from memory; exclusive only while no copies exist.
      if (e.state == DirState::kUncached && want_exclusive) {
        fill_state = CacheState::kLStemp;
        e.state = DirState::kExcl;
        e.owner = node;
        stats_.exclusive_read_replies += 1;
      } else {
        e.state = DirState::kShared;
        dirpol_->add_sharer(e, node);
      }
      t = leg(home, node,
              fill_state == CacheState::kLStemp ? MsgType::kDataExclRead
                                                : MsgType::kDataShared,
              t);
      t += lat_.fill;
      break;
    }
    case DirState::kDirty:
    case DirState::kExcl:
    case DirState::kOwned: {
      const NodeId owner = e.owner;
      assert(owner != node && owner != kInvalidNode);
      CacheHierarchy& oc = caches_[owner];
      const ProbeResult op = oc.probe(block);
      assert(op.l2_hit);
      t = forward(home, owner, MsgType::kReadFwd, t);
      if (op.state == CacheState::kLStemp) {
        // Paper §3.1 case 2: foreign read before the owning write.
        // Owner's copy downgrades to Shared; home de-tags via NotLS (and
        // under ILS the granting site is penalised).
        t += lat_.l2_access;
        policy_->on_exclusive_grant_unused(owner,
                                           oc.l2().find(block)->grant_site);
        set_remote_state(owner, block, CacheState::kShared);
        apply_tag_action(policy_->on_foreign_access(e), e,
                         TagReason::kForeignAccess, block, node);
        stats_.notls_messages += 1;
        t = leg_noegress(owner, home, MsgType::kNotLs, t);
        e.state = DirState::kShared;
        dirpol_->clear_sharers(e);
        dirpol_->add_sharer(e, owner);
        dirpol_->add_sharer(e, node);
        e.owner = kInvalidNode;
        emit(ProtoEventKind::kNotLs, owner, block, now, e);
        t = leg(home, node, MsgType::kDataShared, t);
        t += lat_.fill;
      } else {
        assert(op.state == (e.state == DirState::kOwned
                                ? CacheState::kOwned
                                : CacheState::kModified));
        t += lat_.l2_readout;
        if (want_exclusive) {
          // Tagged + dirty: migrate an exclusive copy to the reader,
          // purging every other copy; the home memory is updated in
          // passing so LStemp stays clean.
          SharerSet targets;
          if (e.state == DirState::kOwned) {
            targets = dirpol_->invalidation_targets(e, node);
            targets.reset(owner);  // Invalidated below, not as a sharer.
          }
          const Cycles acks = fan_out(home, node, block, targets, t, nullptr);
          invalidate_cached_copy(owner, block);
          t = supply(owner, home, node, MsgType::kSharingWb,
                     MsgType::kDataExclRead, t);
          t = std::max(t, acks) + lat_.fill;
          e.state = DirState::kExcl;
          e.owner = node;
          dirpol_->clear_sharers(e);
          fill_state = CacheState::kLStemp;
          stats_.exclusive_read_replies += 1;
          emit(ProtoEventKind::kMigrate, node, block, now, e);
        } else if (e.state == DirState::kOwned || base_.owner_keeps) {
          // MOESI / Dragon: the owner keeps the dirty block (Owned) and
          // supplies the data cache-to-cache (3-hop: requester -> home ->
          // owner -> requester); home memory stays stale.
          if (e.state != DirState::kOwned) {
            set_remote_state(owner, block, CacheState::kOwned);
            e.state = DirState::kOwned;
            dirpol_->clear_sharers(e);
          }
          dirpol_->add_sharer(e, node);
          t = leg_noegress(owner, node, MsgType::kDataShared, t);
          t += lat_.fill;
        } else {
          // Plain read-on-dirty: 4 network hops (paper §4.2).
          set_remote_state(owner, block, CacheState::kShared);
          t = supply(owner, home, node, MsgType::kSharingWb,
                     MsgType::kDataShared, t);
          t += lat_.fill;
          e.state = DirState::kShared;
          dirpol_->clear_sharers(e);
          dirpol_->add_sharer(e, owner);
          dirpol_->add_sharer(e, node);
          e.owner = kInvalidNode;
        }
      }
      break;
    }
  }
  e.last_reader = node;

  const CacheLine victim = caches_[node].fill(block, fill_state);
  handle_l2_victim(node, victim, t);
  CacheLine* filled = caches_[node].l2().find(block);
  if (fill_state == CacheState::kLStemp) {
    filled->grant_site = site;
  }
  fs_.on_fill(node, block, *filled);
  emit(ProtoEventKind::kReadMiss, node, block, now, e, t);
  return t;
}

Cycles MemorySystem::do_write_global(NodeId node, Addr block, Cycles now,
                                     bool upgrade) {
  const NodeId home = space_.home_of(block);
  DirEntry& e = dir_entry_at(block, now);

  stats_.global_write_actions += 1;
  if (!upgrade) {
    stats_.data_misses += 1;
  }

  // Policy tag rules run on the pre-transition entry (paper §3.1 reads
  // the LR field and the sharer set as they were at the request).
  const WriteTagDecision tag_decision =
      policy_->on_global_write(e, node, upgrade);
  apply_tag_action(tag_decision.action, e, tag_decision.reason, block, node);
  const bool lone_write_detag = tag_decision.lone_write_detag;
  oracle_.on_global_write(node, block, /*eliminated=*/false, current_tag_);
  e.last_writer = node;
  // A write by anyone consumes the LR field: a later write can only be
  // part of a load-store sequence if a fresh read precedes it.
  e.last_reader = kInvalidNode;

  Cycles t = now + lat_.l2_access;
  t = leg(node, home, upgrade ? MsgType::kOwnReq : MsgType::kReadExReq, t);
  t += lat_.memory;  // Directory (+ speculative data) access.
  const Cycles t_dir = t;

  // The organisation resolves who must be invalidated (or updated): the
  // exact sharer set under full-map, a broadcast after Dir_iB overflow,
  // whole regions under coarse vectors.
  SharerSet targets;
  if (e.state == DirState::kShared || e.state == DirState::kOwned) {
    targets = dirpol_->invalidation_targets(e, node);
  }
  // A previous owner is not in the sharer word. An upgrade reaches it as
  // one more target; a write miss forwards to it and it supplies the data.
  NodeId supplier = kInvalidNode;
  Cycles data = 0;  // The requester's grant (upgrade) or data arrival.
  if (upgrade) {
    // Paper Fig 5: "Global Inv's" are ownership acquisitions — global
    // write actions to a block that is Shared (or Owned) in the local
    // cache.
    stats_.ownership_acquisitions += 1;
    assert((e.state == DirState::kShared &&
            dirpol_->may_be_sharer(e, node)) ||
           (e.state == DirState::kOwned &&
            (e.owner == node || dirpol_->may_be_sharer(e, node))));
    if (e.state == DirState::kOwned && e.owner != node) {
      targets.set(e.owner);
    }
    data = leg(home, node, MsgType::kOwnAck, t_dir);
  } else if (e.state == DirState::kUncached || e.state == DirState::kShared) {
    data = leg(home, node, MsgType::kDataExclWrite, t_dir) + lat_.fill;
  } else {
    supplier = e.owner;
    assert(supplier != node && supplier != kInvalidNode);
    // An imprecise believed set can cover the owner; it is handled as the
    // supplier, never also as a sharer.
    targets.reset(supplier);
    const ProbeResult op = caches_[supplier].probe(block);
    assert(op.l2_hit);
    data = forward(home, supplier, MsgType::kWriteFwd, t_dir);
    if (op.state == CacheState::kLStemp) {
      // Paper §3.1 case 2 (foreign write): de-tag, unless the lone-
      // write rule above already consumed this event.
      policy_->on_exclusive_grant_unused(
          supplier, caches_[supplier].l2().find(block)->grant_site);
      if (!lone_write_detag) {
        apply_tag_action(policy_->on_foreign_access(e), e,
                         TagReason::kForeignAccess, block, node);
      }
      data += lat_.l2_access;
    } else {
      assert(op.state == (e.state == DirState::kOwned
                              ? CacheState::kOwned
                              : CacheState::kModified));
      data += lat_.l2_readout;
    }
  }

  // Dragon write-update: push the new data to every remote copy instead
  // of invalidating it. The writer becomes the Owned supplier; a previous
  // owner downgrades to a plain (updated) sharer. Every write while copies
  // survive repeats this global update transaction — the cost the
  // protocol trades for the eliminated re-read misses.
  const int count = targets.count();
  const bool update = base_.updates && (count > 0 || supplier != kInvalidNode);
  if (update) {
    stats_.update_transactions += 1;
  } else {
    if (upgrade) {
      // AD-style de-detection: a write invalidating several copies is
      // evidence the block is read-shared, not migratory.
      apply_tag_action(policy_->on_upgrade_invalidations(e, count), e,
                       TagReason::kUpgradeInvalidations, block, node);
    }
    if (count == 1) {
      stats_.single_invalidations += 1;
    }
  }
  // Update-mode transactions leave remote copies alive: the writer then
  // holds Owned over these surviving sharers.
  SharerSet survivors;
  const Cycles acks = fan_out(home, node, block, targets, t_dir,
                              update ? &survivors : nullptr);
  if (supplier != kInvalidNode) {
    if (update) {
      // The previous holder keeps an updated shared copy.
      stats_.updates_sent += 1;
      set_remote_state(supplier, block, CacheState::kShared);
      survivors.set(supplier);
    } else {
      invalidate_cached_copy(supplier, block);
    }
    data = supply(supplier, home, node, MsgType::kOwnerXferAck,
                  MsgType::kDataExclWrite, data) +
           lat_.fill;
  }
  const Cycles completion = std::max(data, acks);

  e.state = update ? DirState::kOwned : DirState::kDirty;
  e.owner = node;
  dirpol_->clear_sharers(e);
  survivors.for_each([&](NodeId s) { dirpol_->add_sharer(e, s); });
  const CacheState state = update ? CacheState::kOwned : CacheState::kModified;
  if (upgrade) {
    caches_[node].set_state(block, state);
  } else {
    const CacheLine victim = caches_[node].fill(block, state);
    handle_l2_victim(node, victim, completion);
    fs_.on_fill(node, block, *caches_[node].l2().find(block));
  }
  emit(upgrade ? ProtoEventKind::kUpgrade : ProtoEventKind::kWriteMiss, node,
       block, now, e, completion);
  return completion;
}

AccessResult MemorySystem::access(NodeId node, const AccessRequest& req,
                                  Cycles now) {
  assert(node < caches_.size());
  if (!AddressSpace::aligned(req.addr, req.size)) [[unlikely]] {
    reject_unaligned(node, req);
  }
  stats_.accesses += 1;

  CacheHierarchy& ch = caches_[node];
  const Addr block = ch.l2().block_of(req.addr);
  const bool is_write = req.is_write();

  AccessResult result;
  bool predicted_exclusive = false;
  if (policy_observes_accesses_) {
    predicted_exclusive =
        policy_->observe_access(node, block, req.site, is_write);
  }

  // L1-hit fast path: valid L1 lines mirror their L2 twin's state
  // (inclusion invariant), so one small-array probe classifies the
  // access. Eligible only when the L2-side per-hit bookkeeping is dead:
  // classifier off (no accessed-word mask) and direct-mapped L2 (no LRU
  // stamp). Everything observable — counters, latency, policy training,
  // LStemp conversion, checker — matches the general path exactly.
  if (l1_fast_hit_) {
    CacheLine* line1 = ch.l1().find(block);
    if (line1 != nullptr &&
        (!is_write || line1->state == CacheState::kModified ||
         line1->state == CacheState::kLStemp)) {
      result.l1_hit = true;
      result.l2_hit = true;
      result.latency = lat_.l1_access;
      stats_.l1_hits += 1;
      ch.l1().touch(*line1);
      if (is_write && line1->state == CacheState::kLStemp) {
        CacheLine* line2 = ch.l2().find(block);
        line2->state = CacheState::kModified;
        line1->state = CacheState::kModified;
        stats_.eliminated_acquisitions += 1;
        emit_local_write(node, block, now);
        // This store would have been a global write action under the
        // baseline protocol; the home learns about it lazily.
        oracle_.on_global_write(node, block, /*eliminated=*/true, req.tag);
      }
      if (!lean_replay_) {
        result.value = apply_data(req);
      }
      if (checker_ != nullptr) {
        checker_->on_access(*this, node, req, result, now);
      }
      return result;
    }
  }

  // One associative search resolves both levels; the returned line
  // pointers carry the whole access (LRU touch, state change, classifier
  // mask) so hits never repeat the lookup.
  LineLookup lines = ch.lookup(block);

  if (lines.l2 != nullptr &&
      (!is_write || lines.l2->state == CacheState::kModified ||
       lines.l2->state == CacheState::kLStemp)) {
    // Cache hit (including the technique's payoff: a write on an
    // exclusive-unwritten LStemp line completes locally).
    result.l1_hit = lines.l1 != nullptr;
    result.l2_hit = true;
    result.latency = result.l1_hit ? lat_.l1_access
                                   : lat_.l1_access + lat_.l2_access;
    if (result.l1_hit) {
      stats_.l1_hits += 1;
    } else {
      stats_.l2_hits += 1;
      lines.l1 = ch.refill_l1(*lines.l2);
    }
    if (is_write && lines.l2->state == CacheState::kLStemp) {
      lines.l2->state = CacheState::kModified;
      lines.l1->state = CacheState::kModified;
      stats_.eliminated_acquisitions += 1;
      emit_local_write(node, block, now);
      // This store would have been a global write action under the
      // baseline protocol; the home learns about it lazily.
      oracle_.on_global_write(node, block, /*eliminated=*/true, req.tag);
    }
  } else {
    // Global transaction: publish the in-flight access context for the
    // oracle and tag-decision hooks reached through the tag machinery.
    current_tag_ = req.tag;
    current_time_ = now;
    if (lines.l2 != nullptr) {
      // Write on a Shared (or update-protocol Owned) line: ownership
      // upgrade.
      assert(lines.l2->state == CacheState::kShared ||
             lines.l2->state == CacheState::kOwned);
      result.l2_hit = true;
      result.global = true;
      result.latency =
          do_write_global(node, block, now, /*upgrade=*/true) - now;
    } else {
      result.global = true;
      const Cycles done =
          is_write ? do_write_global(node, block, now, false)
                   : do_read_miss(node, block, now, predicted_exclusive,
                                  req.site);
      result.latency = done - now;
    }
    // The transaction refilled (or re-created) the line. When the fast
    // hit path is eligible the post-transaction bookkeeping is almost
    // entirely dead (classifier off, direct-mapped L2): only a
    // set-associative L1's LRU stamp survives, so skip the L2 re-probe
    // and finish here.
    if (l1_fast_hit_) {
      if (l1_lru_live_) {
        CacheLine* line1 = ch.l1().find(block);
        if (line1 != nullptr) {
          ch.l1().touch(*line1);
        }
      }
      if (!lean_replay_) {
        result.value = apply_data(req);
      }
      if (checker_ != nullptr) {
        checker_->on_access(*this, node, req, result, now);
      }
      return result;
    }
    lines.l2 = ch.l2().find(block);
    lines.l1 = ch.l1().find(block);
  }

  assert(lines.l2 != nullptr);
  ch.record_access(lines.l1, *lines.l2);
  if (fs_enabled_) {
    const std::uint64_t wmask = word_mask_of(
        req.addr, req.size, cfg_.l2.block_bytes, cfg_.word_bytes);
    fs_.on_access(node, *lines.l2, wmask);
    if (is_write) {
      fs_.on_write_words(node, block, wmask);
    }
  }
  if (!lean_replay_) {
    result.value = apply_data(req);
  }
  if (checker_ != nullptr) {
    checker_->on_access(*this, node, req, result, now);
  }
  return result;
}

void MemorySystem::finalize() {
  if (!fs_enabled_) {
    return;  // on_line_death is a no-op with the classifier off.
  }
  for (std::size_t node = 0; node < caches_.size(); ++node) {
    caches_[node].l2().for_each_valid([this, node](const CacheLine& line) {
      fs_.on_line_death(static_cast<NodeId>(node), line);
    });
  }
}

bool MemorySystem::park(NodeId node, Addr addr) {
  const Addr block = caches_[node].l2().block_of(addr);
  if (caches_[node].l1().find(block) == nullptr) {
    return false;
  }
  parked_block_[node] = block;
  ++parked_count_;
  return true;
}

void MemorySystem::account_l1_read_hits(NodeId node, Addr addr,
                                        std::uint64_t reads,
                                        Cycles gaps) noexcept {
  if (reads == 0) {
    return;  // A touch would still re-stamp the line.
  }
  stats_.accesses += reads;
  stats_.l1_hits += reads;
  stats_.per_proc[node].busy += gaps + reads * lat_.l1_access;
  CacheHierarchy& ch = caches_[node];
  ch.l1().touch(ch.l2().block_of(addr), reads);
}

}  // namespace lssim

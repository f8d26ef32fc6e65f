// The issue-order core shared by live execution (System::run) and trace
// replay (ReplayCompareEngine): always issue the pending access of the
// node with the earliest issue time, ties to the lowest node id (paper
// §4.2), and split each access's latency into busy and stall time the
// same way on both paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"
#include "stats/stats.hpp"

namespace lssim {

/// Tournament (winner) tree over per-node keys (next issue time, node
/// id). tree_[1] holds the overall winner; the leaves — one per node,
/// index-aligned, padded with retired keys up to a power of two — sit at
/// tree_[leaves_ + node]. Updating one node replays only its leaf-to-root
/// path, so selection costs O(log N) instead of an O(N) scan, and the
/// (time, id) order picks exactly what an ascending strict-< scan would.
class IssueScheduler {
 public:
  /// Key of a node with nothing left to issue: it never beats a live
  /// node, whose clock cannot reach the top of the Cycles range.
  static constexpr Cycles kRetired = std::numeric_limits<Cycles>::max();

  /// `nodes` nodes, all retired.
  explicit IssueScheduler(std::size_t nodes) {
    while (leaves_ < nodes) leaves_ *= 2;
    tree_.assign(2 * leaves_, key(kRetired, 0));
  }

  /// Sets `node`'s next issue time (kRetired: nothing left to issue).
  void update(std::size_t node, Cycles issue_time) noexcept {
    std::size_t pos = leaves_ + node;
    Key winner = key(issue_time, node);
    tree_[pos] = winner;
    for (; pos > 1; pos >>= 1) {
      const Key sibling = tree_[pos ^ 1];
      winner = sibling < winner ? sibling : winner;
      tree_[pos >> 1] = winner;
    }
  }

  /// True once every node is retired.
  [[nodiscard]] bool done() const noexcept {
    return winner_time() == kRetired;
  }
  /// The node to issue next and its issue time (meaningless once done).
  [[nodiscard]] std::size_t winner() const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(tree_[1]));
  }
  [[nodiscard]] Cycles winner_time() const noexcept {
    return static_cast<Cycles>(tree_[1] >> 64);
  }

 private:
  /// (time, id) packed so that one unsigned compare orders it: the
  /// compiler selects the smaller of two without a branch.
  using Key = unsigned __int128;
  static Key key(Cycles time, std::size_t node) noexcept {
    return (Key{time} << 64) | node;
  }

  std::size_t leaves_ = 1;
  std::vector<Key> tree_;
};

/// Sequentially consistent time accounting for one access (paper: stall
/// on every L2 miss): one issue slice of up to `l1_access` cycles is
/// busy, the rest of the latency is read or write stall. The node's
/// clock advances by the whole latency.
inline void account_access(TimeBreakdown& tb, bool is_write, Cycles latency,
                           Cycles l1_access) noexcept {
  const Cycles issue = std::min(latency, l1_access);
  tb.busy += issue;
  (is_write ? tb.write_stall : tb.read_stall) += latency - issue;
}

}  // namespace lssim

// A set of node identifiers sized for the largest supported machine.
//
// The directory-organisation seam (core/directory_policy.hpp) resolves
// every sharer question into one of these: invalidation targets, the
// believed-sharer set, checker snapshots. The 64-bit presence word inside
// DirEntry stays an *encoding* owned by the active DirectoryPolicy; this
// type is the decoded, organisation-independent answer, wide enough for
// kMaxNodes (256) nodes.
//
// Fixed-size (four words) and allocation-free: verification code builds
// and compares these per access.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace lssim {

class SharerSet {
 public:
  constexpr SharerSet() = default;

  /// The set {0, 1, ..., count-1} (every node of a `count`-node machine).
  [[nodiscard]] static constexpr SharerSet first_n(int count) noexcept {
    assert(count >= 0 && count <= kMaxNodes);
    SharerSet s;
    for (int w = 0; w < kWords; ++w) {
      const int low = w * 64;
      if (count >= low + 64) {
        s.words_[w] = ~std::uint64_t{0};
      } else if (count > low) {
        s.words_[w] = (std::uint64_t{1} << (count - low)) - 1;
      }
    }
    return s;
  }

  /// Decodes a full-map presence word (bit n = node n, nodes 0..63).
  [[nodiscard]] static constexpr SharerSet from_bitmap(
      std::uint64_t bits) noexcept {
    SharerSet s;
    s.words_[0] = bits;
    return s;
  }

  constexpr void set(NodeId node) noexcept {
    assert(node < kMaxNodes);
    words_[node >> 6] |= std::uint64_t{1} << (node & 63);
  }
  constexpr void reset(NodeId node) noexcept {
    assert(node < kMaxNodes);
    words_[node >> 6] &= ~(std::uint64_t{1} << (node & 63));
  }
  [[nodiscard]] constexpr bool test(NodeId node) const noexcept {
    assert(node < kMaxNodes);
    return (words_[node >> 6] >> (node & 63)) & 1u;
  }

  /// Skips empty words: without a popcount instruction in the target,
  /// each std::popcount is a library call, and machines of up to 64
  /// nodes only ever fill the first word.
  [[nodiscard]] constexpr int count() const noexcept {
    int n = 0;
    for (const std::uint64_t w : words_) {
      if (w != 0) n += std::popcount(w);
    }
    return n;
  }
  /// True when `node` is the only member (count() == 1 && test(node),
  /// without counting).
  [[nodiscard]] constexpr bool is_only(NodeId node) const noexcept {
    assert(node < kMaxNodes);
    for (int w = 0; w < kWords; ++w) {
      const std::uint64_t want =
          w == (node >> 6) ? std::uint64_t{1} << (node & 63) : 0;
      if (words_[w] != want) return false;
    }
    return true;
  }
  [[nodiscard]] constexpr bool empty() const noexcept {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }

  /// True when every member of `other` is also a member of this set.
  [[nodiscard]] constexpr bool contains(const SharerSet& other) const noexcept {
    for (int w = 0; w < kWords; ++w) {
      if ((other.words_[w] & ~words_[w]) != 0) return false;
    }
    return true;
  }

  constexpr SharerSet& operator|=(const SharerSet& other) noexcept {
    for (int w = 0; w < kWords; ++w) words_[w] |= other.words_[w];
    return *this;
  }
  constexpr SharerSet& operator&=(const SharerSet& other) noexcept {
    for (int w = 0; w < kWords; ++w) words_[w] &= other.words_[w];
    return *this;
  }
  [[nodiscard]] constexpr bool operator==(const SharerSet&) const = default;

  /// Visits members in ascending node order — the order the engine
  /// issues invalidations in, so full-map behaviour is reproduced
  /// exactly by decode-then-iterate.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(static_cast<NodeId>(w * 64 + bit));
      }
    }
  }

 private:
  static constexpr int kWords = (kMaxNodes + 63) / 64;
  static_assert(kWords == 4);
  std::uint64_t words_[kWords] = {0, 0, 0, 0};
};

}  // namespace lssim

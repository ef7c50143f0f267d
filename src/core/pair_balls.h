// Per-node d_t-balls over the social pairs, kept as bitmasks: the prefilter
// of the sigma and mu marginal-gain scans (docs/ALGORITHMS.md §1).
//
// Bit i of U(v) is set when r_u(i)[v] <= d_t, bit i of W(v) when
// r_w(i)[v] <= d_t, where r_u(i) / r_w(i) are the distance rows of pair i's
// endpoints. A shortcut (a, b) brings pair i within d_t only through
// r_u[a] + r_w[b] or r_u[b] + r_w[a]. Lengths are non-negative, so either
// sum <= d_t needs both of its terms <= d_t, and pair i's bit is then set
// in reach(a, b) = (U(a) & W(b)) | (U(b) & W(a)). The evaluators run their
// exact test only on those bits, in ascending pair order, so sums over the
// gained pairs add in the same order as an unfiltered scan.
//
// Extra bits are harmless (the exact test drops them); a missing bit would
// lose a gain. The sigma evaluator relies on that asymmetry to widen the
// masks lazily as shortcuts shrink its rows (see SigmaEvaluator).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"

namespace msc::core {

/// Distance rows of one pair's endpoints u and w (nodeCount entries each).
using PairRows = std::pair<const double*, const double*>;

class PairBalls {
 public:
  PairBalls() = default;

  /// Masks over `nodeCount` nodes from one PairRows per pair: bit i of U(v)
  /// iff rows[i].first[v] <= dt, of W(v) iff rows[i].second[v] <= dt.
  /// O(m * n).
  PairBalls(int nodeCount, const std::vector<PairRows>& rows, double dt);

  /// 64-bit words per side of one node's mask (ceil(pairs / 64)).
  std::size_t words() const noexcept { return words_; }

  /// Word w of reach(a, b) = (U(a) & W(b)) | (U(b) & W(a)).
  std::uint64_t reachWord(NodeId a, NodeId b, std::size_t w) const noexcept {
    const std::uint64_t* ma = node(a);
    const std::uint64_t* mb = node(b);
    return (ma[w] & mb[words_ + w]) | (mb[w] & ma[words_ + w]);
  }

  /// ORs `bits` (words() U-side words, then words() W-side words) into
  /// node v's masks.
  void orInto(NodeId v, const std::uint64_t* bits) noexcept {
    std::uint64_t* mv = masks_.data() + offset(v);
    for (std::size_t w = 0; w < 2 * words_; ++w) mv[w] |= bits[w];
  }

 private:
  std::size_t offset(NodeId v) const noexcept {
    return static_cast<std::size_t>(v) * 2 * words_;
  }
  const std::uint64_t* node(NodeId v) const noexcept {
    return masks_.data() + offset(v);
  }

  std::size_t words_ = 0;
  std::vector<std::uint64_t> masks_;  // [node][U words..., W words...]
};

/// Calls fn(base + bit) for every set bit of `word`, lowest first.
template <typename Fn>
inline void forEachSetBit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

}  // namespace msc::core

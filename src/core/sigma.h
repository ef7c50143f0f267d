// The MSC objective sigma(F): number of important social pairs whose
// shortest-path distance in G ∪ F meets the distance requirement
// (paper §III-C).
//
// Weighted MSC: given one weight per pair, sigma(F) is instead the summed
// weight of the maintained pairs (a commander-to-squad link can outweigh a
// peer link). Without weights every pair weighs 1 and the incremental
// gain scan keeps its integer count, so unweighted results are unchanged
// bit for bit. MuEvaluator and NuEvaluator (core/bounds.h) take the same
// weights, so greedy, the sandwich AA, EA and AEA run on either objective.
//
// Three exact evaluation strategies are implemented, all returning the same
// value (the test suite cross-checks them):
//   * rows: apply |F| exact zero-edge relaxations to the pair-endpoint
//     distance rows (graph/shortcut_distance.h) — the incremental
//     workhorse; O(|rows| * n) per shortcut instead of the historical
//     O(n^2) full-matrix update. A candidate's marginal gain costs
//     O(m / 64) mask words plus one exact check per pair that survives the
//     per-node pair-ball prefilter (core/pair_balls.h).
//   * overlay: shortest paths on the small terminal overlay (O(m + |F|)
//     nodes) — wins when n is large relative to the pair set.
//   * rebuild: add F to a copy of the graph and run Dijkstra — the slow
//     reference used by tests.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/pair_balls.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"
#include "util/bitset.h"

namespace msc::core {

class SigmaEvaluator final : public SetFunction, public IncrementalEvaluator {
 public:
  /// The instance must outlive the evaluator. `pairWeights` holds one
  /// weight per pair (see checkPairWeights); empty means unit weights.
  explicit SigmaEvaluator(const Instance& instance,
                          std::vector<double> pairWeights = {});

  // --- SetFunction ---
  double value(const ShortcutList& placement) const override;
  std::string name() const override { return "sigma"; }

  // --- IncrementalEvaluator ---
  void reset() override;
  double currentValue() const override { return current_; }
  double gainIfAdd(const Shortcut& f) const override;
  void add(const Shortcut& f) override;

  // --- introspection on the current incremental state ---
  int satisfiedCount() const noexcept { return satisfied_; }
  bool pairSatisfied(int pairIndex) const {
    return !unsat_.test(static_cast<std::size_t>(pairIndex));
  }
  /// Distance of pair `pairIndex` under the current placement.
  double pairDistance(int pairIndex) const;
  const Instance& instance() const noexcept { return *instance_; }

  // --- individual strategies (exposed for tests and microbenchmarks) ---
  double valueByRows(const ShortcutList& placement) const;
  double valueByOverlay(const ShortcutList& placement) const;
  double valueByRebuild(const ShortcutList& placement) const;

 private:
  double pairWeight(std::size_t i) const {
    return weights_.empty() ? 1.0 : weights_[i];
  }
  /// Summed weight of the pairs i with distanceOf(i) <= d_t.
  template <typename DistanceOf>
  double weightWithin(DistanceOf distanceOf) const;
  /// Calls fn(i) for every unsatisfied pair i that f alone would satisfy.
  template <typename Fn>
  void forEachGained(const Shortcut& f, Fn fn) const;
  /// Marks the unsatisfied pairs the current rows now satisfy.
  void markNewlySatisfied();
  /// Builds baseBalls_ from rows_, which must still hold the base rows.
  void ensureBaseBalls() const;
  /// Brings balls_ up to date with the placement (first gainIfAdd after a
  /// reset() or add(); serialized by ballsMutex_).
  void syncBalls() const;
  /// Widens balls_ by what placed shortcut endpoint `a`'s step may have
  /// brought within d_t.
  void widenBalls(NodeId a) const;

  const Instance* instance_;
  std::vector<double> weights_;  // [pair index]; empty = unit weights
  std::unique_ptr<msc::graph::OverlayEvaluator> overlay_;
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  msc::util::Bitset unsat_;  // [pair index]: not satisfied yet
  int satisfied_ = 0;
  double current_ = 0.0;  // summed weight of the satisfied pairs

  // Gain-scan prefilter (docs/ALGORITHMS.md §1). Invariant once synced: for
  // every unsatisfied pair i and node v, r_u(i)[v] <= d_t sets bit i of
  // U(v) and r_w(i)[v] <= d_t sets bit i of W(v); extra bits are allowed.
  // reset() and add() only record what changed; the first gainIfAdd after
  // a change applies it under ballsMutex_, behind an acquire-load of
  // ballsStale_, so concurrent scans read the masks without locking.
  mutable std::optional<PairBalls> baseBalls_;  // built before rows change
  mutable PairBalls balls_;
  mutable bool restoreBase_ = true;              // balls_ starts over from base
  mutable std::vector<NodeId> placedSinceSync_;  // each shortcut's f.a
  mutable std::atomic<bool> ballsStale_{true};
  mutable std::mutex ballsMutex_;
};

/// One-shot sigma(F) without building an evaluator by hand.
double sigmaValue(const Instance& instance, const ShortcutList& placement);

}  // namespace msc::core

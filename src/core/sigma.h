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
//     O(n^2) full-matrix update, and marginal gains for a candidate still
//     cost O(m).
//   * overlay: shortest paths on the small terminal overlay (O(m + |F|)
//     nodes) — wins when n is large relative to the pair set.
//   * rebuild: add F to a copy of the graph and run Dijkstra — the slow
//     reference used by tests.
#pragma once

#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/set_function.h"
#include "graph/overlay.h"
#include "graph/shortcut_distance.h"

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
    return pairSatisfied_.at(static_cast<std::size_t>(pairIndex)) != 0;
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

  const Instance* instance_;
  std::vector<double> weights_;  // [pair index]; empty = unit weights
  std::unique_ptr<msc::graph::OverlayEvaluator> overlay_;
  // Pair-endpoint distance rows under the current placement.
  msc::graph::ShortcutRowStore rows_;
  std::vector<std::uint8_t> pairSatisfied_;
  int satisfied_ = 0;
  double current_ = 0.0;  // summed weight of the satisfied pairs
};

/// One-shot sigma(F) without building an evaluator by hand.
double sigmaValue(const Instance& instance, const ShortcutList& placement);

}  // namespace msc::core

// Reference marginal gains for the filtered scans of core::SigmaEvaluator
// and core::MuEvaluator: the unfiltered loops, every pair tested exactly,
// with no per-node pair-ball prefilter in front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "graph/shortcut_distance.h"
#include "util/bitset.h"

namespace msc::test::reference {

/// sigma gains against `placement`: a fresh ShortcutRowStore receives the
/// placement, then gainIfAdd tests every pair the rows leave unsatisfied
/// with both orientations of the shortcut, in pair order. Unit weights
/// count an integer, as SigmaEvaluator does; other weights sum in pair
/// order.
class SigmaGain {
 public:
  SigmaGain(const msc::core::Instance& instance,
            const msc::core::ShortcutList& placement,
            std::vector<double> weights = {})
      : instance_(&instance),
        weights_(std::move(weights)),
        rows_(instance.distanceOracle(), instance.pairNodes()) {
    for (const msc::core::Shortcut& f : placement) {
      rows_.applyZeroEdge(f.a, f.b);
    }
  }

  double gainIfAdd(const msc::core::Shortcut& f) const {
    const auto& pairs = instance_->pairs();
    const double dt = instance_->distanceThreshold();
    const auto a = static_cast<std::size_t>(f.a);
    const auto b = static_cast<std::size_t>(f.b);
    int count = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double* ru = rows_.rowIfPresent(pairs[i].u);
      const double* rw = rows_.rowIfPresent(pairs[i].w);
      if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) continue;
      if (std::min(ru[a] + rw[b], ru[b] + rw[a]) <= dt) {
        ++count;
        if (!weights_.empty()) sum += weights_[i];
      }
    }
    return weights_.empty() ? static_cast<double>(count) : sum;
  }

 private:
  const msc::core::Instance* instance_;
  std::vector<double> weights_;
  msc::graph::ShortcutRowStore rows_;
};

/// MuEvaluator's pair bitset for the single shortcut f, built unfiltered:
/// every pair tested on the base rows, min(r_u[w], r_u[a] + r_w[b],
/// r_u[b] + r_w[a]) <= d_t.
inline msc::util::Bitset muCandidateBits(const msc::core::Instance& instance,
                                         const msc::core::Shortcut& f) {
  const auto& pairs = instance.pairs();
  const auto& oracle = instance.distanceOracle();
  const double dt = instance.distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  msc::util::Bitset out(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double* ru = oracle.distancesFrom(pairs[i].u).data();
    const double* rw = oracle.distancesFrom(pairs[i].w).data();
    const auto w = static_cast<std::size_t>(pairs[i].w);
    const double best = std::min({ru[w], ru[a] + rw[b], ru[b] + rw[a]});
    if (best <= dt) out.set(i);
  }
  return out;
}

}  // namespace msc::test::reference

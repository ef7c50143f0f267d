#include "core/sigma.h"

#include <algorithm>
#include <utility>

#include "graph/dijkstra.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Relaxation work in gainIfAdd/add scales with the number of pairs still
// unsatisfied; published per call so strategy comparisons see operation
// counts, not just call counts.
void publishPairScan(std::size_t pairs, int alreadySatisfied) {
  static auto& cRelax = msc::obs::counter("sigma.relaxations");
  cRelax.add(pairs - static_cast<std::size_t>(alreadySatisfied));
}

}  // namespace

SigmaEvaluator::SigmaEvaluator(const Instance& instance,
                               std::vector<double> pairWeights)
    : instance_(&instance),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      overlay_(std::make_unique<msc::graph::OverlayEvaluator>(
          instance.distanceOracle(), instance.pairNodes())),
      rows_(instance.distanceOracle(), instance.pairNodes()) {
  reset();
}

void SigmaEvaluator::reset() {
  rows_.reset();
  pairSatisfied_.assign(instance_->pairs().size(), 0);
  satisfied_ = 0;
  current_ = 0.0;
  markNewlySatisfied();
}

void SigmaEvaluator::markNewlySatisfied() {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairSatisfied_[i]) continue;  // distances only shrink
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      pairSatisfied_[i] = 1;
      ++satisfied_;
      current_ += pairWeight(i);
    }
  }
}

template <typename Fn>
void SigmaEvaluator::forEachGained(const Shortcut& f, Fn fn) const {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairSatisfied_[i]) continue;  // distances only shrink
    // Both endpoint rows exist: pair nodes seed the row store. The row of w
    // stands in for the columns of w (the evolved metric is symmetric).
    const double* ru = rows_.rowIfPresent(pairs[i].u);
    const double* rw = rows_.rowIfPresent(pairs[i].w);
    const double viaAB = ru[a] + rw[b];
    const double viaBA = ru[b] + rw[a];
    if (std::min(viaAB, viaBA) <= dt) fn(i);
  }
}

double SigmaEvaluator::gainIfAdd(const Shortcut& f) const {
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("sigma.gain_calls");
    cGain.add(1);
    publishPairScan(instance_->pairs().size(), satisfied_);
  }
  if (weights_.empty()) {
    int gain = 0;
    forEachGained(f, [&gain](std::size_t) { ++gain; });
    return static_cast<double>(gain);
  }
  double gain = 0.0;
  forEachGained(f, [&](std::size_t i) { gain += weights_[i]; });
  return gain;
}

void SigmaEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("sigma.adds");
    cAdd.add(1);
    publishPairScan(instance_->pairs().size(), satisfied_);
  }
  rows_.applyZeroEdge(f.a, f.b);
  markNewlySatisfied();
}

double SigmaEvaluator::pairDistance(int pairIndex) const {
  const auto& p = instance_->pairs().at(static_cast<std::size_t>(pairIndex));
  return rows_.rowIfPresent(p.u)[static_cast<std::size_t>(p.w)];
}

// Sums in pair order, so every strategy returns the same bits; with unit
// weights the sum of 1.0s is the exact pair count.
template <typename DistanceOf>
double SigmaEvaluator::weightWithin(DistanceOf distanceOf) const {
  const double dt = instance_->distanceThreshold();
  double total = 0.0;
  for (std::size_t i = 0; i < instance_->pairs().size(); ++i) {
    if (distanceOf(i) <= dt) total += pairWeight(i);
  }
  return total;
}

double SigmaEvaluator::value(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cCalls = msc::obs::counter("sigma.calls");
    cCalls.add(1);
  }
  // Cost heuristic: row relaxations touch |F| * |rows| * n entries, the
  // overlay touches |F| * (2m + 2|F|)^2 ≈ |F| * |rows|^2. Pick the cheaper
  // exact strategy: overlay when the overlay is smaller than a row.
  const auto n = static_cast<double>(instance_->graph().nodeCount());
  const auto overlayNodes =
      static_cast<double>(instance_->pairNodes().size() + 2 * placement.size());
  if (overlayNodes < n) {
    return valueByOverlay(placement);
  }
  return valueByRows(placement);
}

double SigmaEvaluator::valueByRows(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cRows = msc::obs::counter("sigma.value.rows");
    cRows.add(1);
  }
  msc::graph::ShortcutRowStore rows(instance_->distanceOracle(),
                                    instance_->pairNodes());
  for (const Shortcut& f : placement) rows.applyZeroEdge(f.a, f.b);
  const auto& pairs = instance_->pairs();
  return weightWithin([&](std::size_t i) {
    return rows.rowIfPresent(pairs[i].u)[static_cast<std::size_t>(pairs[i].w)];
  });
}

double SigmaEvaluator::valueByOverlay(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cOverlay = msc::obs::counter("sigma.value.overlay");
    cOverlay.add(1);
  }
  std::vector<std::pair<msc::graph::NodeId, msc::graph::NodeId>> queries;
  queries.reserve(instance_->pairs().size());
  for (const SocialPair& p : instance_->pairs()) queries.push_back({p.u, p.w});
  const std::vector<double> dists =
      overlay_->pairDistances(queries, asNodePairs(placement));
  return weightWithin([&dists](std::size_t i) { return dists[i]; });
}

double SigmaEvaluator::valueByRebuild(const ShortcutList& placement) const {
  if (msc::obs::enabled()) {
    static auto& cRebuild = msc::obs::counter("sigma.value.rebuild");
    cRebuild.add(1);
  }
  msc::graph::Graph g(instance_->graph().nodeCount());
  for (const msc::graph::Edge& e : instance_->graph().edges()) {
    g.addEdge(e.u, e.v, e.length);
  }
  for (const Shortcut& f : placement) g.addEdge(f.a, f.b, 0.0);
  const auto& pairs = instance_->pairs();
  return weightWithin([&](std::size_t i) {
    return msc::graph::dijkstraDistance(g, pairs[i].u, pairs[i].w);
  });
}

double sigmaValue(const Instance& instance, const ShortcutList& placement) {
  return SigmaEvaluator(instance).value(placement);
}

}  // namespace msc::core

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
      rows_(instance.distanceOracle(), instance.pairNodes()),
      unsat_(instance.pairs().size()) {
  reset();
}

void SigmaEvaluator::reset() {
  rows_.reset();
  unsat_.setAll();
  satisfied_ = 0;
  current_ = 0.0;
  markNewlySatisfied();
  restoreBase_ = true;
  placedSinceSync_.clear();
  ballsStale_.store(true, std::memory_order_relaxed);
}

void SigmaEvaluator::markNewlySatisfied() {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto& words = unsat_.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    // Distances only shrink, so satisfied pairs stay satisfied.
    forEachSetBit(words[w], w * 64, [&](std::size_t i) {
      const double* ru = rows_.rowIfPresent(pairs[i].u);
      if (ru[static_cast<std::size_t>(pairs[i].w)] <= dt) {
        unsat_.reset(i);
        ++satisfied_;
        current_ += pairWeight(i);
      }
    });
  }
}

void SigmaEvaluator::ensureBaseBalls() const {
  if (baseBalls_) return;
  std::vector<PairRows> rows;
  rows.reserve(instance_->pairs().size());
  for (const SocialPair& p : instance_->pairs()) {
    rows.push_back({rows_.rowIfPresent(p.u), rows_.rowIfPresent(p.w)});
  }
  baseBalls_.emplace(rows_.nodeCount(), rows, instance_->distanceThreshold());
}

void SigmaEvaluator::syncBalls() const {
  const std::lock_guard<std::mutex> lock(ballsMutex_);
  if (!ballsStale_.load(std::memory_order_relaxed)) return;  // synced already
  // No add() since construction leaves the rows at base (add() builds the
  // base masks before its first relaxation).
  ensureBaseBalls();
  if (restoreBase_) {
    balls_ = *baseBalls_;
    restoreBase_ = false;
  }
  for (const NodeId a : placedSinceSync_) widenBalls(a);
  placedSinceSync_.clear();
  ballsStale_.store(false, std::memory_order_release);
}

// Placing (a, b) relaxed every row as r_u[y] = min(r_u[y], r_u[a] + r_a[y]),
// with r_u[a] and r_a taken after the step. Rows only shrink and FP addition
// is monotone, so the same sum over today's rows is no larger: any entry
// this step brought within d_t passes `r_u[a] + r_a[y] <= d_t` now. For a
// node y near a, the pair sides passing it are a prefix of the sides
// sorted by r_u[a]; y takes that prefix's bits. Pairs already satisfied
// are skipped: they stay satisfied until reset() restores the base masks.
void SigmaEvaluator::widenBalls(NodeId a) const {
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto ua = static_cast<std::size_t>(a);
  // (r_side[a], 2 * pair + side) for the unsatisfied pair sides within d_t
  // of a; side 0 is u (mask U), side 1 is w (mask W).
  std::vector<std::pair<double, std::size_t>> sides;
  const auto& unsat = unsat_.words();
  for (std::size_t w = 0; w < unsat.size(); ++w) {
    forEachSetBit(unsat[w], w * 64, [&](std::size_t i) {
      const double du = rows_.rowIfPresent(pairs[i].u)[ua];
      const double dw = rows_.rowIfPresent(pairs[i].w)[ua];
      if (du <= dt) sides.push_back({du, 2 * i});
      if (dw <= dt) sides.push_back({dw, 2 * i + 1});
    });
  }
  if (sides.empty()) return;
  std::sort(sides.begin(), sides.end());

  // (prefix length, y) for every node y whose prefix is non-empty.
  const double* ra = rows_.rowIfPresent(a);
  std::vector<std::pair<std::size_t, NodeId>> reach;
  for (NodeId y = 0; y < rows_.nodeCount(); ++y) {
    const double ray = ra[static_cast<std::size_t>(y)];
    if (!(ray <= dt)) continue;
    const auto end = std::partition_point(
        sides.begin(), sides.end(),
        [&](const auto& side) { return side.first + ray <= dt; });
    const auto taken = static_cast<std::size_t>(end - sides.begin());
    if (taken > 0) reach.push_back({taken, y});
  }
  std::sort(reach.begin(), reach.end());

  // Grow the prefix mask in sort order and OR it into each node.
  const std::size_t words = balls_.words();
  std::vector<std::uint64_t> prefix(2 * words, 0);
  std::size_t taken = 0;
  for (const auto& [length, y] : reach) {
    for (; taken < length; ++taken) {
      const std::size_t i = sides[taken].second / 2;
      const std::size_t side = sides[taken].second % 2;
      prefix[side * words + i / 64] |= 1ULL << (i % 64);
    }
    balls_.orInto(y, prefix.data());
  }
}

template <typename Fn>
void SigmaEvaluator::forEachGained(const Shortcut& f, Fn fn) const {
  if (ballsStale_.load(std::memory_order_acquire)) syncBalls();
  const auto& pairs = instance_->pairs();
  const double dt = instance_->distanceThreshold();
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  const auto& unsat = unsat_.words();
  std::size_t checks = 0;
  for (std::size_t w = 0; w < unsat.size(); ++w) {
    const std::uint64_t candidates = balls_.reachWord(f.a, f.b, w) & unsat[w];
    forEachSetBit(candidates, w * 64, [&](std::size_t i) {
      ++checks;
      // Both endpoint rows exist: pair nodes seed the row store. The row of
      // w stands in for the columns of w (the evolved metric is symmetric).
      const double* ru = rows_.rowIfPresent(pairs[i].u);
      const double* rw = rows_.rowIfPresent(pairs[i].w);
      const double viaAB = ru[a] + rw[b];
      const double viaBA = ru[b] + rw[a];
      if (std::min(viaAB, viaBA) <= dt) fn(i);
    });
  }
  if (msc::obs::enabled()) {
    static auto& cChecks = msc::obs::counter("sigma.gain_checks");
    cChecks.add(checks);
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
  ensureBaseBalls();
  rows_.applyZeroEdge(f.a, f.b);
  markNewlySatisfied();
  // A self-loop leaves the rows (and the row store's slots) untouched.
  if (f.a != f.b) placedSinceSync_.push_back(f.a);
  ballsStale_.store(true, std::memory_order_relaxed);
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

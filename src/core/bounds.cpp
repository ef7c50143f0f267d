#include "core/bounds.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/pair_balls.h"
#include "obs/metrics.h"

namespace msc::core {

namespace {

// Pair satisfied when its path may use shortcut (a, b) at most once.
// `ru` / `rw` are the base distance rows of the pair's endpoints; the row
// of w stands in for the matrix columns of w (the base metric is
// symmetric).
bool satisfiedWithOneShortcut(const double* ru, const double* rw,
                              const SocialPair& p, const Shortcut& f,
                              double dt) {
  const auto w = static_cast<std::size_t>(p.w);
  const auto a = static_cast<std::size_t>(f.a);
  const auto b = static_cast<std::size_t>(f.b);
  const double best = std::min({ru[w], ru[a] + rw[b], ru[b] + rw[a]});
  return best <= dt;
}

// Base distance rows of every pair endpoint (cached in the oracle, so the
// spans stay valid for the evaluator's lifetime).
std::vector<PairRows> pairEndpointRows(const Instance& instance) {
  const auto& oracle = instance.distanceOracle();
  std::vector<PairRows> rows;
  rows.reserve(instance.pairs().size());
  for (const SocialPair& p : instance.pairs()) {
    rows.push_back(
        {oracle.distancesFrom(p.u).data(), oracle.distancesFrom(p.w).data()});
  }
  return rows;
}

// `total` plus weights[i] for every set bit i, added in ascending order.
double addWeightsOf(double total, const util::Bitset& bits,
                    const std::vector<double>& weights) {
  const auto& words = bits.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    forEachSetBit(words[w], w * 64,
                  [&](std::size_t i) { total += weights[i]; });
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------- Mu ----

MuEvaluator::MuEvaluator(const Instance& instance,
                         const CandidateSet& candidates,
                         std::vector<double> pairWeights)
    : instance_(&instance),
      candidates_(&candidates),
      weights_(checkPairWeights(instance, std::move(pairWeights))),
      baseSatisfied_(instance.pairs().size()),
      covered_(instance.pairs().size()) {
  const auto& pairs = instance.pairs();
  const auto rows = pairEndpointRows(instance);
  const double dt = instance.distanceThreshold();

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (instance.baseSatisfied(pairs[i])) baseSatisfied_.set(i);
  }
  // A pair passes satisfiedWithOneShortcut only at base (its own ru[w])
  // or through a sum whose bit is in the pair-ball reach of the shortcut,
  // so only those bits need the exact check.
  const PairBalls balls(instance.graph().nodeCount(), rows, dt);
  std::vector<std::uint64_t> atBase(balls.words(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (rows[i].first[static_cast<std::size_t>(pairs[i].w)] <= dt) {
      atBase[i / 64] |= 1ULL << (i % 64);
    }
  }
  perCandidate_.reserve(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const Shortcut& f = candidates[c];
    util::Bitset bits(pairs.size());
    for (std::size_t w = 0; w < atBase.size(); ++w) {
      forEachSetBit(balls.reachWord(f.a, f.b, w) | atBase[w], w * 64,
                    [&](std::size_t i) {
                      if (satisfiedWithOneShortcut(rows[i].first,
                                                   rows[i].second, pairs[i],
                                                   f, dt)) {
                        bits.set(i);
                      }
                    });
    }
    perCandidate_.push_back(std::move(bits));
  }
  reset();
}

const util::Bitset& MuEvaluator::bitsetFor(const Shortcut& f,
                                           util::Bitset& scratch) const {
  const long idx = candidates_->indexOf(f);
  if (idx >= 0) return perCandidate_[static_cast<std::size_t>(idx)];
  // Not a precomputed candidate: compute from scratch.
  const auto& pairs = instance_->pairs();
  const auto rows = pairEndpointRows(*instance_);
  const double dt = instance_->distanceThreshold();
  scratch = util::Bitset(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (satisfiedWithOneShortcut(rows[i].first, rows[i].second, pairs[i], f,
                                 dt)) {
      scratch.set(i);
    }
  }
  return scratch;
}

double MuEvaluator::weightOf(const util::Bitset& pairs) const {
  if (weights_.empty()) return static_cast<double>(pairs.count());
  return addWeightsOf(0.0, pairs, weights_);
}

double MuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc = baseSatisfied_;
  util::Bitset scratch;
  for (const Shortcut& f : placement) acc |= bitsetFor(f, scratch);
  return weightOf(acc);
}

void MuEvaluator::reset() { covered_ = baseSatisfied_; }

double MuEvaluator::gainIfAdd(const Shortcut& f) const {
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("mu.gain_calls");
    cGain.add(1);
  }
  util::Bitset scratch;
  const util::Bitset& bits = bitsetFor(f, scratch);
  if (weights_.empty()) return static_cast<double>(covered_.gainIfUnion(bits));
  double gain = 0.0;
  covered_.forEachMissingFrom(bits,
                              [&](std::size_t i) { gain += weights_[i]; });
  return gain;
}

void MuEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("mu.adds");
    cAdd.add(1);
  }
  util::Bitset scratch;
  covered_ |= bitsetFor(f, scratch);
}

util::Bitset MuEvaluator::satisfiedBy(const Shortcut& f) const {
  util::Bitset scratch;
  util::Bitset out = bitsetFor(f, scratch);
  out |= baseSatisfied_;
  return out;
}

// ---------------------------------------------------------------- Nu ----

NuEvaluator::NuEvaluator(const Instance& instance,
                         std::vector<double> pairWeights)
    : instance_(&instance), covered_(instance.pairNodes().size()) {
  pairWeights = checkPairWeights(instance, std::move(pairWeights));
  const auto& pairs = instance.pairs();
  const auto& pairNodes = instance.pairNodes();
  const double dt = instance.distanceThreshold();
  const int n = instance.graph().nodeCount();

  // Pair-node index lookup.
  std::vector<int> slot(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    slot[static_cast<std::size_t>(pairNodes[i])] = static_cast<int>(i);
  }

  // Weights count only initially-unsatisfied pairs; the satisfied ones are
  // folded into baseConstant_ so nu still upper-bounds sigma on instances
  // with pre-satisfied pairs.
  weights_.assign(pairNodes.size(), 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const SocialPair& p = pairs[i];
    const double w = pairWeights.empty() ? 1.0 : pairWeights[i];
    if (instance.baseSatisfied(p)) {
      baseConstant_ += w;
      continue;
    }
    weights_[static_cast<std::size_t>(slot[static_cast<std::size_t>(p.u)])] +=
        0.5 * w;
    weights_[static_cast<std::size_t>(slot[static_cast<std::size_t>(p.w)])] +=
        0.5 * w;
  }

  // coverage_[v]: pair-nodes within d_t of graph node v. Built by sweeping
  // each pair-node's distance row (prefetched at instance construction)
  // instead of reading matrix columns, so only |pairNodes| rows are ever
  // touched — no O(n^2) materialization on lazy backends.
  coverage_.assign(static_cast<std::size_t>(n),
                   util::Bitset(pairNodes.size()));
  const auto& oracle = instance.distanceOracle();
  for (std::size_t i = 0; i < pairNodes.size(); ++i) {
    const std::span<const double> row = oracle.distancesFrom(pairNodes[i]);
    for (int v = 0; v < n; ++v) {
      if (row[static_cast<std::size_t>(v)] <= dt) {
        coverage_[static_cast<std::size_t>(v)].set(i);
      }
    }
  }
  reset();
}

double NuEvaluator::value(const ShortcutList& placement) const {
  util::Bitset acc(instance_->pairNodes().size());
  for (const Shortcut& f : placement) {
    acc |= coverage_[static_cast<std::size_t>(f.a)];
    acc |= coverage_[static_cast<std::size_t>(f.b)];
  }
  return addWeightsOf(baseConstant_, acc, weights_);
}

void NuEvaluator::reset() {
  covered_ = util::Bitset(instance_->pairNodes().size());
  current_ = baseConstant_;
}

double NuEvaluator::gainOfEndpoint(NodeId v,
                                   const util::Bitset& covered) const {
  double gain = 0.0;
  covered.forEachMissingFrom(coverage_[static_cast<std::size_t>(v)],
                             [&](std::size_t bit) { gain += weights_[bit]; });
  return gain;
}

double NuEvaluator::gainIfAdd(const Shortcut& f) const {
  if (msc::obs::enabled()) {
    static auto& cGain = msc::obs::counter("nu.gain_calls");
    cGain.add(1);
  }
  if (f.a == f.b) return 0.0;
  double gain = gainOfEndpoint(f.a, covered_);
  // Second endpoint's gain must not double-count pair-nodes the first
  // endpoint newly covers.
  util::Bitset afterA = covered_;
  afterA |= coverage_[static_cast<std::size_t>(f.a)];
  gain += gainOfEndpoint(f.b, afterA);
  return gain;
}

void NuEvaluator::add(const Shortcut& f) {
  if (msc::obs::enabled()) {
    static auto& cAdd = msc::obs::counter("nu.adds");
    cAdd.add(1);
  }
  current_ += gainIfAdd(f);
  covered_ |= coverage_[static_cast<std::size_t>(f.a)];
  covered_ |= coverage_[static_cast<std::size_t>(f.b)];
}

}  // namespace msc::core

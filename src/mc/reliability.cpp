#include "mc/reliability.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "wireless/link_model.h"

namespace msc::mc {
namespace {

using msc::graph::NodeId;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ReliabilityEvaluator::ReliabilityEvaluator(const core::Instance& instance,
                                           const WorldSet& worlds,
                                           Objective objective)
    : instance_(&instance), worlds_(&worlds), objective_(objective) {
  const auto& g = instance.graph();
  if (&worlds.graph() != &g &&
      (worlds.graph().nodeCount() != g.nodeCount() ||
       worlds.graph().edgeCount() != g.edgeCount())) {
    throw std::invalid_argument(
        "ReliabilityEvaluator: WorldSet was sampled over a different graph");
  }
  const auto n = static_cast<std::size_t>(g.nodeCount());
  adjacency_.resize(n);
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::uint64_t* plane = worlds.edgePlane(e).words().data();
    adjacency_[static_cast<std::size_t>(edges[e].u)].push_back(
        {edges[e].v, plane});
    adjacency_[static_cast<std::size_t>(edges[e].v)].push_back(
        {edges[e].u, plane});
  }

  // One BFS source per distinct pair endpoint: gainIfAdd needs both R_u
  // and R_w of every pair.
  const auto sourceOf = [this](NodeId x) {
    std::size_t si = 0;
    while (si < sources_.size() && sources_[si].source != x) ++si;
    if (si == sources_.size()) sources_.push_back({x, {}});
    return si;
  };
  for (const core::SocialPair& p : instance.pairs()) {
    pairSources_.push_back({sourceOf(p.u), sourceOf(p.w)});
  }
  words_ = (static_cast<std::size_t>(worlds.worlds()) + 63) / 64;
  for (auto& sr : sources_) sr.planes.resize(n * words_);
  queued_.assign(n, 0);
  reachCount_.assign(pairSources_.size(), 0);

  // Maintained iff R̂ >= 1 - p_t, as an integer world-count threshold.
  // The epsilon keeps an exactly-at-threshold count qualifying despite
  // the rounding in W * (1 - p_t).
  const double pt =
      msc::wireless::lengthToFailure(instance.distanceThreshold());
  const double need = static_cast<double>(worlds.worlds()) * (1.0 - pt);
  minCount_ = static_cast<std::size_t>(
      std::max(0.0, std::ceil(need - 1e-9)));

  reset();
}

void ReliabilityEvaluator::reset() {
  // Drop committed shortcuts from the adjacency (they were appended after
  // the base arcs, one arc per endpoint per shortcut).
  for (const core::Shortcut& f : placement_) {
    adjacency_[static_cast<std::size_t>(f.a)].pop_back();
    adjacency_[static_cast<std::size_t>(f.b)].pop_back();
  }
  placement_.clear();

  // The source reaches itself in all W worlds; tail bits past W stay zero,
  // and every relax ANDs with a reach plane, so they stay zero everywhere.
  const std::size_t tail = static_cast<std::size_t>(worlds_->worlds()) % 64;
  const auto start = std::chrono::steady_clock::now();
  for (auto& sr : sources_) {
    std::fill(sr.planes.begin(), sr.planes.end(), 0);
    std::uint64_t* own =
        sr.planes.data() + static_cast<std::size_t>(sr.source) * words_;
    std::fill(own, own + words_, ~0ULL);
    if (tail != 0) own[words_ - 1] = (1ULL << tail) - 1;
    propagate(sr, {sr.source});
  }
  recordFrontierSeconds(secondsSince(start));
  refreshCounts();
}

void ReliabilityEvaluator::propagate(SourceReach& sr,
                                     std::initializer_list<NodeId> seeds) {
  for (const NodeId s : seeds) {
    if (!queued_[static_cast<std::size_t>(s)]) {
      queued_[static_cast<std::size_t>(s)] = 1;
      frontier_.push_back(s);
    }
  }
  std::uint64_t* const planes = sr.planes.data();
  const std::size_t nw = words_;
  while (!frontier_.empty()) {
    const NodeId x = frontier_.back();
    frontier_.pop_back();
    queued_[static_cast<std::size_t>(x)] = 0;
    const std::uint64_t* rx = planes + static_cast<std::size_t>(x) * nw;
    for (const OutArc& arc : adjacency_[static_cast<std::size_t>(x)]) {
      // reach[y] |= reach[x] & plane & ~reach[y], 64 worlds per word.
      std::uint64_t* ry = planes + static_cast<std::size_t>(arc.to) * nw;
      std::uint64_t changed = 0;
      if (arc.plane != nullptr) {
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t add = rx[w] & arc.plane[w] & ~ry[w];
          ry[w] |= add;
          changed |= add;
        }
      } else {
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t add = rx[w] & ~ry[w];
          ry[w] |= add;
          changed |= add;
        }
      }
      if (changed != 0 && !queued_[static_cast<std::size_t>(arc.to)]) {
        queued_[static_cast<std::size_t>(arc.to)] = 1;
        frontier_.push_back(arc.to);
      }
    }
  }
}

void ReliabilityEvaluator::recordFrontierSeconds(double seconds) {
  // Committed-propagation latency; recorded even with metrics disabled so
  // tail latency is always visible (PR 8 histogram convention). gainIfAdd
  // deliberately does not record: it is the parallel-scan hot loop.
  static auto& frontierHist = msc::obs::histogram("mc.frontier_seconds");
  frontierHist.record(seconds);
}

void ReliabilityEvaluator::add(const core::Shortcut& f) {
  instance_->graph().checkNode(f.a);
  instance_->graph().checkNode(f.b);
  placement_.push_back(f);
  adjacency_[static_cast<std::size_t>(f.a)].push_back({f.b, nullptr});
  adjacency_[static_cast<std::size_t>(f.b)].push_back({f.a, nullptr});
  // Reachability only grows when an edge is added, so propagating from the
  // new endpoints alone reaches the monotone fixpoint.
  const auto start = std::chrono::steady_clock::now();
  for (auto& sr : sources_) propagate(sr, {f.a, f.b});
  recordFrontierSeconds(secondsSince(start));
  refreshCounts();
  reportProgress();
}

void ReliabilityEvaluator::reportProgress() const {
  // Estimator-convergence snapshot per committed shortcut: σ̂, uncertain
  // pairs, and half-width spread. Computed only when a reporter is bound —
  // the unbound path pays one thread-local load — and never from
  // gainIfAdd, which is the parallel-scan hot loop.
  msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
  if (progress == nullptr) return;
  const double w = static_cast<double>(worlds_->worlds());
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance_->distanceThreshold());
  const double z = 1.96;  // matches McOptions' default confidence
  double sumHw = 0.0;
  double maxHw = 0.0;
  int uncertain = 0;
  for (const std::size_t c : reachCount_) {
    const double r = static_cast<double>(c) / w;
    const double hw = z * std::sqrt(r * (1.0 - r) / w);
    sumHw += hw;
    maxHw = std::max(maxHw, hw);
    if (std::abs(r - threshold) <= hw) ++uncertain;
  }
  msc::obs::ProgressSnapshot snap;
  snap.solver = "mc";
  snap.stage = msc::obs::currentProgressStage();
  snap.round = static_cast<int>(placement_.size());
  snap.totalRounds = -1;  // the evaluator doesn't know the caller's budget
  snap.value = currentValue();
  snap.extra("worlds", w);
  snap.extra("sigma_hat", static_cast<double>(maintained_));
  snap.extra("uncertain_pairs", static_cast<double>(uncertain));
  if (!reachCount_.empty()) {
    snap.extra("mean_half_width",
               sumHw / static_cast<double>(reachCount_.size()));
    snap.extra("max_half_width", maxHw);
  }
  progress->report(snap);
}

void ReliabilityEvaluator::refreshCounts() {
  totalReached_ = 0;
  maintained_ = 0;
  const auto& pairs = instance_->pairs();
  for (std::size_t i = 0; i < reachCount_.size(); ++i) {
    const std::uint64_t* uw = reach(pairSources_[i].u, pairs[i].w);
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      c += static_cast<std::size_t>(std::popcount(uw[w]));
    }
    reachCount_[i] = c;
    totalReached_ += c;
    if (c >= minCount_) ++maintained_;
  }
}

double ReliabilityEvaluator::currentValue() const {
  if (objective_ == Objective::MaintainedCount) {
    return static_cast<double>(maintained_);
  }
  return static_cast<double>(totalReached_) /
         static_cast<double>(worlds_->worlds());
}

double ReliabilityEvaluator::gainIfAdd(const core::Shortcut& f) const {
  instance_->graph().checkNode(f.a);
  instance_->graph().checkNode(f.b);

  const bool hard = objective_ == Objective::MaintainedCount;
  const auto all = static_cast<std::size_t>(worlds_->worlds());
  const auto& pairs = instance_->pairs();
  std::size_t added = 0;  // worlds newly connected, summed over pairs
  int newlyMaintained = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t before = reachCount_[i];
    // Nothing to gain: connected in every world, or (σ̂) already counted.
    if (before == all || (hard && before >= minCount_)) continue;
    const PairSources& ps = pairSources_[i];
    const std::uint64_t* uw = reach(ps.u, pairs[i].w);
    const std::uint64_t* ua = reach(ps.u, f.a);
    const std::uint64_t* ub = reach(ps.u, f.b);
    const std::uint64_t* wa = reach(ps.w, f.a);
    const std::uint64_t* wb = reach(ps.w, f.b);
    std::size_t after = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      after += static_cast<std::size_t>(
          std::popcount(uw[w] | (ua[w] & wb[w]) | (ub[w] & wa[w])));
    }
    added += after - before;
    if (after >= minCount_) ++newlyMaintained;  // under σ̂, before < minCount_
  }

  if (hard) return static_cast<double>(newlyMaintained);
  return static_cast<double>(added) / static_cast<double>(all);
}

double ReliabilityEvaluator::value(
    const core::ShortcutList& placement) const {
  ReliabilityEvaluator scratch(*instance_, *worlds_, objective_);
  return scratch.evaluate(placement);
}

std::vector<PairReliability> ReliabilityEvaluator::pairEstimates(
    double z) const {
  const double w = static_cast<double>(worlds_->worlds());
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance_->distanceThreshold());
  std::vector<PairReliability> out;
  out.reserve(reachCount_.size());
  for (std::size_t i = 0; i < reachCount_.size(); ++i) {
    PairReliability pr;
    pr.pair = instance_->pairs()[i];
    pr.reliability = static_cast<double>(reachCount_[i]) / w;
    pr.halfWidth = z * std::sqrt(pr.reliability * (1.0 - pr.reliability) / w);
    pr.maintained = reachCount_[i] >= minCount_;
    pr.uncertain = std::abs(pr.reliability - threshold) <= pr.halfWidth;
    out.push_back(pr);
  }
  return out;
}

int ReliabilityEvaluator::uncertainCount(double z) const {
  int c = 0;
  for (const PairReliability& pr : pairEstimates(z)) {
    if (pr.uncertain) ++c;
  }
  return c;
}

namespace {

/// Union-find over node ids; plain arrays, path halving.
struct DisjointSet {
  std::vector<int> parent;
  explicit DisjointSet(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    parent[static_cast<std::size_t>(find(a))] = find(b);
  }
};

}  // namespace

std::vector<double> exactPairReliabilities(
    const core::Instance& instance, const core::ShortcutList& placement) {
  const auto& g = instance.graph();
  const std::size_t m = g.edgeCount();
  if (m > 20) {
    throw std::invalid_argument(
        "exactPairReliabilities: 2^m enumeration needs edgeCount <= 20");
  }
  const auto edges = g.edges();
  std::vector<double> pUp(m);
  for (std::size_t e = 0; e < m; ++e) pUp[e] = std::exp(-edges[e].length);

  const auto& pairs = instance.pairs();
  std::vector<double> rel(pairs.size(), 0.0);
  const std::uint64_t worlds = 1ULL << m;
  for (std::uint64_t mask = 0; mask < worlds; ++mask) {
    double prob = 1.0;
    for (std::size_t e = 0; e < m; ++e) {
      prob *= ((mask >> e) & 1ULL) ? pUp[e] : (1.0 - pUp[e]);
    }
    if (prob == 0.0) continue;
    DisjointSet dsu(g.nodeCount());
    for (std::size_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1ULL) dsu.unite(edges[e].u, edges[e].v);
    }
    for (const core::Shortcut& f : placement) dsu.unite(f.a, f.b);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (dsu.find(pairs[i].u) == dsu.find(pairs[i].w)) rel[i] += prob;
    }
  }
  return rel;
}

int exactSigma(const core::Instance& instance,
               const core::ShortcutList& placement) {
  const double threshold =
      1.0 - msc::wireless::lengthToFailure(instance.distanceThreshold());
  int sigma = 0;
  for (const double r : exactPairReliabilities(instance, placement)) {
    if (r >= threshold - 1e-12) ++sigma;
  }
  return sigma;
}

}  // namespace msc::mc

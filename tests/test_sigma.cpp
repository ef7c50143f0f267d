#include "core/sigma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <tuple>

#include "core/bounds.h"
#include "core/candidates.h"
#include "gen/gowalla.h"
#include "gen/random_geometric.h"
#include "graph/dijkstra.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "reference/sigma_gain.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using msc::core::Instance;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;

Instance paperCounterexample() {
  // §V-A: V = {v0, v1, v2}, E = {}, all three pairs important, d_t = 1.
  msc::graph::Graph g(3);
  return Instance(std::move(g), {{0, 1}, {0, 2}, {1, 2}}, 1.0);
}

TEST(Sigma, EmptyPlacementOnDisconnectedTriple) {
  const auto inst = paperCounterexample();
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.value({}), 0.0);
  EXPECT_EQ(eval.satisfiedCount(), 0);
}

TEST(Sigma, PaperCounterexampleValues) {
  const auto inst = paperCounterexample();
  SigmaEvaluator eval(inst);
  // One shortcut satisfies exactly its own pair.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 1)}), 1.0);
  // Two shortcuts satisfy all three pairs (the third via two 0-edges).
  EXPECT_DOUBLE_EQ(
      eval.value({Shortcut::make(0, 1), Shortcut::make(1, 2)}), 3.0);
}

TEST(Sigma, LineGraphShortcut) {
  // 0-1-2-3-4-5 unit lengths, pairs (0,5) and (1,4), threshold 2.
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.value({}), 0.0);
  // Shortcut (0,5) satisfies (0,5) directly AND (1,4) via 1-0-(5)-4 = 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 5)}), 2.0);
  // A useless extra shortcut changes nothing.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(0, 5), Shortcut::make(2, 3)}),
                   2.0);
  // Shortcut (1,4) satisfies (1,4) directly and (0,5) via 0-1-(4)-5 = 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(1, 4)}), 2.0);
  // (2,3) alone satisfies (1,4) via 1-2-(3)-4 = 2 but leaves (0,5) at
  // 0-1-2-(3)-4-5 = 4 > 2.
  EXPECT_DOUBLE_EQ(eval.value({Shortcut::make(2, 3)}), 1.0);
}

TEST(Sigma, DuplicatesInPlacementAreHarmless) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(
      eval.value({Shortcut::make(0, 5), Shortcut::make(0, 5)}), 1.0);
}

TEST(Sigma, IncrementalMatchesWholeSet) {
  Instance inst(msc::test::lineGraph(8), {{0, 7}, {1, 6}, {2, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.reset();
  const ShortcutList placement{Shortcut::make(0, 7), Shortcut::make(1, 6)};
  for (const auto& f : placement) {
    const double before = eval.currentValue();
    const double gain = eval.gainIfAdd(f);
    eval.add(f);
    EXPECT_DOUBLE_EQ(eval.currentValue(), before + gain);
  }
  EXPECT_DOUBLE_EQ(eval.currentValue(), eval.value(placement));
}

TEST(Sigma, PairDistanceTracksPlacement) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.reset();
  EXPECT_DOUBLE_EQ(eval.pairDistance(0), 5.0);
  eval.add(Shortcut::make(1, 4));
  EXPECT_DOUBLE_EQ(eval.pairDistance(0), 2.0);
  EXPECT_TRUE(eval.pairSatisfied(0));
}

TEST(Sigma, EvaluateSetsState) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 1.0);
  SigmaEvaluator eval(inst);
  EXPECT_DOUBLE_EQ(eval.evaluate({Shortcut::make(0, 5)}), 1.0);
  EXPECT_DOUBLE_EQ(eval.evaluate({}), 0.0);  // reset works
}

// ----------------------------------------------------------- Property ----

class SigmaStrategies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SigmaStrategies, AllThreeStrategiesAgree) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(30, 8, 1.2, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0xbeefULL);
  for (int trial = 0; trial < 8; ++trial) {
    const auto placement =
        msc::test::randomPlacement(30, static_cast<int>(rng.below(6)) , rng);
    const double byRows = eval.valueByRows(placement);
    const double byOverlay = eval.valueByOverlay(placement);
    const double byRebuild = eval.valueByRebuild(placement);
    EXPECT_DOUBLE_EQ(byRows, byOverlay) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(byRows, byRebuild) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(eval.value(placement), byRows);
  }
}

TEST_P(SigmaStrategies, MonotoneInPlacement) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(25, 6, 1.0, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0x77ULL);
  ShortcutList f;
  double prev = eval.value(f);
  for (int step = 0; step < 6; ++step) {
    const auto extra = msc::test::randomPlacement(25, 1, rng);
    if (msc::core::contains(f, extra[0])) continue;
    f.push_back(extra[0]);
    const double now = eval.value(f);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_P(SigmaStrategies, GainConsistentWithValue) {
  const std::uint64_t seed = GetParam();
  const auto inst = msc::test::randomInstance(20, 6, 1.0, seed);
  SigmaEvaluator eval(inst);
  msc::util::Rng rng(seed ^ 0x1234ULL);
  const auto base = msc::test::randomPlacement(20, 3, rng);
  eval.evaluate(base);
  for (int trial = 0; trial < 10; ++trial) {
    const auto extra = msc::test::randomPlacement(20, 1, rng)[0];
    auto grown = base;
    grown.push_back(extra);
    EXPECT_DOUBLE_EQ(eval.gainIfAdd(extra),
                     eval.value(grown) - eval.value(base))
        << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigmaStrategies,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- pair-ball prefilter vs the unfiltered scan -------------------------
//
// gainIfAdd runs its exact test only on the pairs in the pair-ball reach of
// the shortcut (core/pair_balls.h), with masks synced lazily after each
// change. Every gain must equal the unfiltered reference bit for bit.

// Uniform node pairs (u != w): some near, some far, some disconnected.
std::vector<SocialPair> spreadPairs(int n, int m, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < m) {
    const auto u = static_cast<msc::core::NodeId>(rng.below(n));
    const auto w = static_cast<msc::core::NodeId>(rng.below(n));
    if (u != w) pairs.push_back({u, w});
  }
  return pairs;
}

// d_t at the 30th percentile of the finite pair distances: some pairs start
// satisfied, most do not, and shortcuts have gains to find.
double splitThreshold(const msc::graph::Graph& g,
                      const std::vector<SocialPair>& pairs) {
  std::vector<double> finite;
  for (const SocialPair& p : pairs) {
    const double d = msc::graph::dijkstraDistance(g, p.u, p.w);
    if (std::isfinite(d)) finite.push_back(d);
  }
  if (finite.empty()) return 1.0;
  std::sort(finite.begin(), finite.end());
  return finite[finite.size() * 3 / 10];
}

enum class Topology { RandomGeometric, GowallaLike, ErdosRenyi };

Instance topologyInstance(Topology topology, std::uint64_t seed) {
  msc::graph::Graph g;
  int m = 0;
  switch (topology) {
    case Topology::RandomGeometric: {
      msc::gen::RandomGeometricConfig cfg;
      cfg.nodes = 60;
      cfg.radius = 0.2;
      cfg.seed = seed;
      g = msc::gen::randomGeometric(cfg).graph;
      m = 70;  // two mask words
      break;
    }
    case Topology::GowallaLike: {
      msc::gen::GowallaConfig cfg;
      cfg.users = 60;
      cfg.anchors = 4;
      cfg.seed = seed;
      g = msc::gen::gowallaLike(cfg).graph;
      m = 40;
      break;
    }
    case Topology::ErdosRenyi:
      g = msc::test::randomGraph(50, 2.0 / 50, seed);  // may be disconnected
      m = 25;
      break;
  }
  auto pairs = spreadPairs(g.nodeCount(), m, seed ^ 0x5eedULL);
  const double dt = splitThreshold(g, pairs);
  return Instance(std::move(g), std::move(pairs), dt);
}

std::vector<double> randomWeights(std::size_t m, std::uint64_t seed) {
  msc::util::Rng rng(seed);
  std::vector<double> weights(m);
  for (double& w : weights) w = rng.uniform(0.1, 3.0);
  return weights;
}

// Every shortcut over the nodes, plus zero self-loops at some pair nodes.
std::vector<Shortcut> scanUniverse(const Instance& inst) {
  std::vector<Shortcut> out =
      msc::core::CandidateSet::allPairs(inst.graph().nodeCount()).all();
  for (std::size_t i = 0; i < inst.pairNodes().size(); i += 3) {
    out.push_back(Shortcut{inst.pairNodes()[i], inst.pairNodes()[i]});
  }
  return out;
}

// One gain scan with `threads` workers, as a solver round runs it: the
// first gainIfAdd after a change syncs the masks under concurrent callers.
std::vector<double> scanGains(const SigmaEvaluator& eval,
                              const std::vector<Shortcut>& universe,
                              int threads) {
  std::vector<double> gains(universe.size());
  msc::util::parallelForThreads(
      threads, 0, universe.size(), 16, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          gains[c] = eval.gainIfAdd(universe[c]);
        }
      });
  return gains;
}

struct Differential {
  const Instance& inst;
  const std::vector<double>& weights;
  int threads;
  std::vector<Shortcut> universe = scanUniverse(inst);

  // Scans every candidate against `placed` (the evaluator's state) and
  // returns the gains.
  std::vector<double> check(const SigmaEvaluator& eval,
                            const ShortcutList& placed,
                            const std::string& where) const {
    const msc::test::reference::SigmaGain ref(inst, placed, weights);
    const std::vector<double> gains = scanGains(eval, universe, threads);
    int mismatches = 0;
    for (std::size_t c = 0; c < universe.size(); ++c) {
      const double want = ref.gainIfAdd(universe[c]);
      if (std::bit_cast<std::uint64_t>(gains[c]) !=
          std::bit_cast<std::uint64_t>(want)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << where << ": shortcut (" << universe[c].a << ", "
                        << universe[c].b << ") gain " << gains[c]
                        << ", reference " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << where;
    return gains;
  }

  void run(std::uint64_t seed) const {
    SigmaEvaluator eval(inst, weights);
    msc::util::Rng rng(seed);
    const int n = inst.graph().nodeCount();
    const auto& edges = inst.graph().edges();
    const msc::core::NodeId loop = inst.pairs()[0].u;

    // Greedy rounds: place the best candidate (first wins), or a random
    // one once nothing gains. Round 2 also re-adds a placed shortcut and a
    // self-loop, which the row store ignores.
    ShortcutList placed;
    for (int round = 0; round < 6; ++round) {
      const auto gains =
          check(eval, placed, "greedy round " + std::to_string(round));
      std::size_t best = 0;
      for (std::size_t c = 1; c < gains.size(); ++c) {
        if (gains[c] > gains[best]) best = c;
      }
      const Shortcut pick = gains[best] > 0.0
                                ? universe[best]
                                : msc::test::randomPlacement(n, 1, rng)[0];
      eval.add(pick);
      placed.push_back(pick);
      if (round == 2) {
        for (const Shortcut& extra : {placed[0], Shortcut{loop, loop}}) {
          eval.add(extra);
          placed.push_back(extra);
        }
      }
    }

    // AEA-style: evaluate() a whole placement (reset + adds), then scan.
    for (int trial = 0; trial < 4; ++trial) {
      ShortcutList placement = msc::test::randomPlacement(
          n, 1 + static_cast<int>(rng.below(4)), rng);
      if (!edges.empty()) {
        const auto& e = edges[rng.below(edges.size())];
        if (e.u != e.v) placement.push_back(Shortcut::make(e.u, e.v));
      }
      placement.push_back(placement.front());  // duplicate
      eval.evaluate(placement);
      check(eval, placement, "evaluate trial " + std::to_string(trial));
    }

    // reset() between a synced scan and the next adds.
    const ShortcutList first = msc::test::randomPlacement(n, 3, rng);
    eval.evaluate(first);
    check(eval, first, "before reset");
    eval.reset();
    check(eval, {}, "after reset");
    const ShortcutList second = msc::test::randomPlacement(n, 2, rng);
    eval.add(second[0]);
    check(eval, {second[0]}, "after reset + add");
    eval.add(second[1]);
    check(eval, second, "after reset + two adds");
  }
};

class PairBallPrefilter
    : public ::testing::TestWithParam<std::tuple<Topology, bool, int>> {};

TEST_P(PairBallPrefilter, EveryGainMatchesUnfilteredScan) {
  const auto [topology, weighted, threads] = GetParam();
  for (const std::uint64_t seed : {3u, 8u}) {
    const Instance inst = topologyInstance(topology, seed);
    const std::vector<double> weights =
        weighted ? randomWeights(inst.pairs().size(), seed)
                 : std::vector<double>{};
    Differential{inst, weights, threads}.run(seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PairBallPrefilter,
    ::testing::Combine(::testing::Values(Topology::RandomGeometric,
                                         Topology::GowallaLike,
                                         Topology::ErdosRenyi),
                       ::testing::Bool(), ::testing::Values(1, 4)));

TEST(PairBallPrefilterEdges, ZeroThresholdAndDisconnectedGraph) {
  // Two components (0..4 and 5..9) with one zero-length edge; pairs within
  // and across components, one already satisfied.
  msc::graph::Graph g(10);
  for (int v = 0; v + 1 < 5; ++v) g.addEdge(v, v + 1, 1.0);
  for (int v = 5; v + 1 < 10; ++v) g.addEdge(v, v + 1, v == 6 ? 0.0 : 0.5);
  const std::vector<SocialPair> pairs = {{0, 4}, {1, 8}, {6, 7}, {5, 9},
                                         {2, 3}, {0, 9}, {4, 5}};
  const std::vector<double> weights = {0.5, 1.5, 2.0, 1.0, 0.25, 3.0, 1.0};
  for (const double dt : {0.0, 1.0, 2.5}) {
    const Instance inst(msc::graph::Graph(g), pairs, dt);
    for (const int threads : {1, 4}) {
      Differential{inst, {}, threads}.run(11);
      Differential{inst, weights, threads}.run(12);
    }
  }
}

TEST(PairBallPrefilterMu, CandidateBitsetsEqualUnfilteredConstruction) {
  for (const Topology topology :
       {Topology::RandomGeometric, Topology::GowallaLike,
        Topology::ErdosRenyi}) {
    const Instance inst = topologyInstance(topology, 5);
    const auto candidates =
        msc::core::CandidateSet::allPairs(inst.graph().nodeCount());
    const msc::core::MuEvaluator mu(inst, candidates);
    int mismatches = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (!(mu.candidateBits(c) ==
            msc::test::reference::muCandidateBits(inst, candidates[c]))) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << static_cast<int>(topology);
  }
}

// --- metrics instrumentation -------------------------------------------

// Guard that enables metrics for one test and restores the default after.
struct MetricsScope {
  MetricsScope() {
    msc::obs::resetAll();
    msc::obs::setEnabled(true);
  }
  ~MetricsScope() {
    msc::obs::setEnabled(false);
    msc::obs::resetAll();
  }
};

TEST(SigmaMetrics, StrategiesReportConsistentCallCounts) {
  // Instance construction runs APSP (one Dijkstra per node); build it
  // before enabling metrics so the counters below see only strategy work.
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;
  const ShortcutList f = {Shortcut::make(0, 5)};

  constexpr std::uint64_t kCalls = 3;
  double byRows = 0.0, byOverlay = 0.0, byRebuild = 0.0;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    byRows = eval.valueByRows(f);
    byOverlay = eval.valueByOverlay(f);
    byRebuild = eval.valueByRebuild(f);
  }

  // All three exact strategies agree on the value...
  EXPECT_DOUBLE_EQ(byRows, byOverlay);
  EXPECT_DOUBLE_EQ(byRows, byRebuild);
  // ...and each reports exactly the calls it served.
  EXPECT_EQ(msc::obs::counter("sigma.value.rows").value(), kCalls);
  EXPECT_EQ(msc::obs::counter("sigma.value.overlay").value(), kCalls);
  EXPECT_EQ(msc::obs::counter("sigma.value.rebuild").value(), kCalls);
  // The rebuild strategy runs one Dijkstra per pair per call.
  EXPECT_EQ(msc::obs::counter("dijkstra.runs").value(),
            kCalls * inst.pairs().size());
}

TEST(SigmaMetrics, ValueDispatchCountsOnceAndPicksOneStrategy) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;

  eval.value({Shortcut::make(0, 5)});
  EXPECT_EQ(msc::obs::counter("sigma.calls").value(), 1u);
  const std::uint64_t strategies =
      msc::obs::counter("sigma.value.rows").value() +
      msc::obs::counter("sigma.value.overlay").value() +
      msc::obs::counter("sigma.value.rebuild").value();
  EXPECT_EQ(strategies, 1u);
}

TEST(SigmaMetrics, IncrementalPathCountsGainsAndAdds) {
  Instance inst(msc::test::lineGraph(6), {{0, 5}, {1, 4}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;

  eval.gainIfAdd(Shortcut::make(0, 5));
  eval.gainIfAdd(Shortcut::make(2, 3));
  eval.add(Shortcut::make(0, 5));
  EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(), 2u);
  EXPECT_EQ(msc::obs::counter("sigma.adds").value(), 1u);
  // Both pairs were unsatisfied at every probe: 2 + 2 + 2 relaxations.
  EXPECT_EQ(msc::obs::counter("sigma.relaxations").value(), 6u);
}

TEST(SigmaMetrics, GainChecksCountOnlyPrefilterSurvivors) {
  // 0-1-...-9, pair (0, 9), d_t = 2: nodes 4 and 5 lie outside both
  // endpoints' balls, so (4, 5) reaches no exact check; (0, 9) needs one.
  Instance inst(msc::test::lineGraph(10), {{0, 9}}, 2.0);
  SigmaEvaluator eval(inst);
  const MetricsScope metrics;

  EXPECT_DOUBLE_EQ(eval.gainIfAdd(Shortcut::make(4, 5)), 0.0);
  EXPECT_EQ(msc::obs::counter("sigma.gain_checks").value(), 0u);
  EXPECT_DOUBLE_EQ(eval.gainIfAdd(Shortcut::make(0, 9)), 1.0);
  EXPECT_EQ(msc::obs::counter("sigma.gain_checks").value(), 1u);
  // The prefilter does not change what relaxations count.
  EXPECT_EQ(msc::obs::counter("sigma.relaxations").value(), 2u);
}

TEST(SigmaMetrics, DisabledRegistryRecordsNothing) {
  msc::obs::resetAll();
  msc::obs::setEnabled(false);
  Instance inst(msc::test::lineGraph(6), {{0, 5}}, 2.0);
  SigmaEvaluator eval(inst);
  eval.value({Shortcut::make(0, 5)});
  eval.gainIfAdd(Shortcut::make(0, 5));
  EXPECT_EQ(msc::obs::counter("sigma.calls").value(), 0u);
  EXPECT_EQ(msc::obs::counter("sigma.gain_calls").value(), 0u);
  msc::obs::resetAll();
}

}  // namespace

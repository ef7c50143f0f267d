// Property suite for the DistanceOracle (ALGORITHMS.md §15): the lazy
// pair-centric mode must be observationally equivalent to the all-rows-
// resident dense mode everywhere the solvers look, and the dense mode must
// be bit-identical to allPairsDistances, the reference. Sweeps every
// src/gen generator and asserts sigma/mu/nu agree exactly between modes at
// 1 and 4 threads, plus the corner cases the equivalence argument leans
// on: disconnected pairs (kInfDist), degenerate landmark counts, ALT
// point-query vs row bit-identity, ShortcutRowStore vs the full-matrix
// relaxation, the static Auto rule, and concurrent lock-free reads of the
// resident mode (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sigma.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/gowalla.h"
#include "gen/grid.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "graph/shortcut_distance.h"
#include "helpers.h"
#include "serve/instance_cache.h"
#include "util/rng.h"

namespace {

using msc::core::CandidateSet;
using msc::core::Instance;
using msc::core::InstanceOptions;
using msc::core::MuEvaluator;
using msc::core::NuEvaluator;
using msc::core::Shortcut;
using msc::core::ShortcutList;
using msc::core::SigmaEvaluator;
using msc::core::SocialPair;
using msc::graph::DistanceMode;
using msc::graph::DistanceOracle;
using msc::graph::Graph;
using msc::graph::kInfDist;
using msc::graph::NodeId;

struct GenCase {
  std::string name;
  Graph graph;
};

// One representative topology per generator, sized so the dense path stays
// cheap but paths are several edges long (where the modes could differ).
std::vector<GenCase> generatorSweep() {
  std::vector<GenCase> cases;
  {
    msc::gen::GridConfig cfg;
    cfg.width = 7;
    cfg.height = 5;
    cases.push_back({"grid", msc::gen::grid(cfg).graph});
  }
  {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = 60;
    cfg.radius = 0.2;
    cfg.seed = 3;
    cases.push_back({"random_geometric", msc::gen::randomGeometric(cfg).graph});
  }
  {
    msc::gen::ErdosRenyiConfig cfg;
    cfg.nodes = 50;
    cfg.edgeProbability = 0.08;
    cfg.seed = 5;
    cases.push_back({"erdos_renyi", msc::gen::erdosRenyi(cfg)});
  }
  {
    msc::gen::WattsStrogatzConfig cfg;
    cfg.nodes = 48;
    cfg.neighbors = 2;
    cfg.seed = 7;
    cases.push_back({"watts_strogatz", msc::gen::wattsStrogatz(cfg)});
  }
  {
    msc::gen::BarabasiAlbertConfig cfg;
    cfg.nodes = 50;
    cfg.attachEdges = 2;
    cfg.seed = 11;
    cases.push_back({"barabasi_albert", msc::gen::barabasiAlbert(cfg)});
  }
  {
    msc::gen::GowallaConfig cfg;
    cfg.users = 60;
    cfg.anchors = 4;
    cases.push_back({"gowalla_like", msc::gen::gowallaLike(cfg).graph});
  }
  return cases;
}

// Deterministic pair sample: spread endpoints across the node range so
// some pairs are far (unsatisfied at the threshold) and some near.
std::vector<SocialPair> samplePairs(const Graph& g, int m,
                                    std::uint64_t seed) {
  msc::util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.nodeCount());
  std::vector<SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto w = static_cast<NodeId>(rng.below(n));
    if (u == w) continue;
    pairs.push_back({std::min(u, w), std::max(u, w)});
  }
  return pairs;
}

// A threshold that splits the sampled pairs: between the median finite
// pair distance and the next distinct one, so sigma is neither 0 nor m
// trivially. Deliberately NOT equal to any pair distance — the modes
// are allowed to differ in the last ulp, so a threshold sitting exactly
// on a distance would make the <= dt comparison mode-dependent (the
// one documented exception to exact sigma/mu/nu agreement).
double medianThreshold(const msc::graph::DistanceOracle& oracle,
                       const std::vector<SocialPair>& pairs) {
  std::vector<double> finite;
  for (const auto& p : pairs) {
    const double d = oracle.distance(p.u, p.w);
    if (d != kInfDist) finite.push_back(d);
  }
  if (finite.empty()) return 1.0;
  std::sort(finite.begin(), finite.end());
  const double median = finite[finite.size() / 2];
  const auto next = std::upper_bound(finite.begin(), finite.end(), median);
  return next == finite.end() ? median * 1.001 : (median + *next) / 2.0;
}

class OracleBackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OracleBackendEquivalence, SigmaMuNuAgreeAcrossAllGenerators) {
  const int threads = GetParam();
  for (auto& gc : generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto pairs = samplePairs(gc.graph, 8, 13);
    Graph gDense = gc.graph;   // Instance takes ownership
    Graph gPc = gc.graph;

    const Instance dense(std::move(gDense), pairs, 0.0,
                         InstanceOptions{.threads = threads,
                                         .distanceMode = DistanceMode::Dense});
    const double dt = medianThreshold(dense.distanceOracle(), pairs);
    const Instance denseT(gc.graph, pairs, dt,
                          InstanceOptions{.threads = threads,
                                          .distanceMode = DistanceMode::Dense});
    const Instance pcT(std::move(gPc), pairs, dt,
                       InstanceOptions{.threads = threads,
                                       .distanceMode =
                                           DistanceMode::PairCentric});
    ASSERT_STREQ(denseT.distanceOracle().mode(), "dense");
    ASSERT_STREQ(pcT.distanceOracle().mode(), "pair_centric");

    // Same placement evaluated by both modes: run greedy on the dense
    // instance, then score that placement everywhere.
    const auto cands = CandidateSet::allPairs(gc.graph.nodeCount());
    SigmaEvaluator sigmaDense(denseT);
    SigmaEvaluator sigmaPc(pcT);
    const auto greedy = msc::core::greedyMaximize(
        sigmaDense, cands, {.k = 3, .threads = threads});

    for (const ShortcutList& f :
         {ShortcutList{}, greedy.placement}) {
      EXPECT_EQ(sigmaDense.value(f), sigmaPc.value(f));
      MuEvaluator muDense(denseT, cands);
      MuEvaluator muPc(pcT, cands);
      EXPECT_EQ(muDense.value(f), muPc.value(f));
      NuEvaluator nuDense(denseT);
      NuEvaluator nuPc(pcT);
      EXPECT_EQ(nuDense.value(f), nuPc.value(f));
    }

    // And the greedy trajectory itself is reproducible on the other
    // mode: same picks, same value.
    const auto greedyPc = msc::core::greedyMaximize(
        sigmaPc, cands, {.k = 3, .threads = threads});
    EXPECT_EQ(greedy.placement, greedyPc.placement);
    EXPECT_EQ(greedy.value, greedyPc.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OracleBackendEquivalence,
                         ::testing::Values(1, 4));

TEST(OracleDisconnected, InfDistAgreesAndShortcutBridges) {
  // Two line components: 0-1-2-3 and 4-5-6-7; the pair (0, 7) spans them.
  Graph g(8);
  for (int v : {0, 1, 2}) g.addEdge(v, v + 1, 1.0);
  for (int v : {4, 5, 6}) g.addEdge(v, v + 1, 1.0);
  const std::vector<SocialPair> pairs = {{0, 7}, {1, 2}};

  for (const auto mode : {DistanceMode::Dense, DistanceMode::PairCentric}) {
    SCOPED_TRACE(msc::graph::distanceModeName(mode));
    Graph copy = g;
    const Instance inst(std::move(copy), pairs, 2.5,
                        InstanceOptions{.distanceMode = mode});
    EXPECT_EQ(inst.distanceOracle().distance(0, 7), kInfDist);
    EXPECT_EQ(inst.distanceOracle().distancesFrom(0)[7], kInfDist);
    SigmaEvaluator sigma(inst);
    EXPECT_EQ(sigma.value({}), 1.0);  // only (1, 2) is satisfied
    // A zero-length bridge (3, 4) makes d(0, 7) = 3 + 0 + 3... no: the
    // relaxation gives d(0,3)+d(4,7) = 3 + 3 = 6 > 2.5. Bridge the
    // endpoints directly instead: (0, 7) collapses the pair distance to 0.
    EXPECT_EQ(sigma.value({Shortcut::make(0, 7)}), 2.0);
  }
}

TEST(OracleLandmarks, ZeroAndOversizedLandmarkCountsStayExact) {
  const auto g = msc::test::randomGraph(30, 0.12, 21);
  const auto dense = msc::graph::allPairsDistances(g);
  const auto shared = std::make_shared<const Graph>(g);

  for (const int landmarks : {0, g.nodeCount(), g.nodeCount() + 5}) {
    SCOPED_TRACE(landmarks);
    DistanceOracle oracle(shared, DistanceOracle::Config{landmarks});
    EXPECT_LE(static_cast<int>(oracle.landmarks().size()), g.nodeCount());
    for (NodeId s = 0; s < g.nodeCount(); s += 5) {
      for (NodeId t = 0; t < g.nodeCount(); t += 3) {
        const double got = oracle.distance(s, t);
        const double want = dense(static_cast<std::size_t>(s),
                                  static_cast<std::size_t>(t));
        if (want == kInfDist) {
          EXPECT_EQ(got, kInfDist) << "s=" << s << " t=" << t;
        } else {
          // Dense rows are symmetrized; a point query is one-directional,
          // so allow the documented last-ulp slack.
          EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, want))
              << "s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(OracleAltQuery, PointQueryBitIdenticalToRowEntry) {
  const auto g = msc::test::randomGraph(40, 0.1, 33);
  const auto shared = std::make_shared<const Graph>(g);
  DistanceOracle oracle(shared, DistanceOracle::Config{4});

  // Pick query endpoints that are not landmarks, so neither row is cached
  // and distance() must take the ALT A* path.
  const auto lms = oracle.landmarks();
  const auto isLandmark = [&](NodeId v) {
    return std::find(lms.begin(), lms.end(), v) != lms.end();
  };
  int checked = 0;
  for (NodeId s = 0; s < g.nodeCount() && checked < 12; ++s) {
    if (isLandmark(s)) continue;
    for (NodeId t = s + 1; t < g.nodeCount() && checked < 12; t += 7) {
      if (isLandmark(t)) continue;
      DistanceOracle fresh(shared, DistanceOracle::Config{4});
      const double point = fresh.distance(s, t);
      // distance() normalizes to the row of min(s, t); the ALT result
      // must be bit-identical to that row's entry.
      const double rowEntry = fresh.distancesFrom(s)[static_cast<std::size_t>(t)];
      EXPECT_EQ(point, rowEntry) << "s=" << s << " t=" << t;
      ++checked;
    }
  }
  EXPECT_GE(checked, 4);
}

TEST(ShortcutRows, RowStoreBitIdenticalToFullMatrixRelaxation) {
  const auto g = msc::test::randomGraph(35, 0.1, 44);
  const auto base = msc::graph::allPairsDistances(g);
  const DistanceOracle oracle(std::make_shared<const Graph>(g),
                              DistanceOracle::AllRowsResident{});

  const std::vector<std::pair<NodeId, NodeId>> shortcuts = {
      {0, 34}, {5, 20}, {11, 28}};
  const auto evolved = msc::graph::distancesWithShortcuts(base, shortcuts);

  const std::vector<NodeId> terminals = {0, 3, 11, 20, 34};
  msc::graph::ShortcutRowStore rows(oracle, terminals);
  for (const auto& [a, b] : shortcuts) rows.applyZeroEdge(a, b);

  for (const NodeId v : terminals) {
    const double* row = rows.row(v);
    for (NodeId y = 0; y < g.nodeCount(); ++y) {
      EXPECT_EQ(row[y], evolved(static_cast<std::size_t>(v),
                                static_cast<std::size_t>(y)))
          << "v=" << v << " y=" << y;
    }
  }

  // A terminal added after the shortcuts replays to the same bits.
  const NodeId late = 17;
  const double* lateRow = rows.row(late);
  for (NodeId y = 0; y < g.nodeCount(); ++y) {
    EXPECT_EQ(lateRow[y], evolved(static_cast<std::size_t>(late),
                                  static_cast<std::size_t>(y)))
        << "y=" << y;
  }
}

// ---- all-rows-resident mode ----------------------------------------------

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class ResidentMode : public ::testing::TestWithParam<int> {};

// The dense mode holds allPairsDistances' matrix: every row and every point
// query reads back its exact bits, on every generator, for any thread
// count of the APSP build.
TEST_P(ResidentMode, RowsAndPointQueriesBitIdenticalToApsp) {
  const int threads = GetParam();
  for (auto& gc : generatorSweep()) {
    SCOPED_TRACE(gc.name);
    const auto reference = msc::graph::allPairsDistances(gc.graph);
    const DistanceOracle oracle(std::make_shared<const Graph>(gc.graph),
                                DistanceOracle::AllRowsResident{threads});
    ASSERT_STREQ(oracle.mode(), "dense");
    const int n = gc.graph.nodeCount();
    int mismatches = 0;
    for (NodeId x = 0; x < n; ++x) {
      const auto row = oracle.distancesFrom(x);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
      for (NodeId y = 0; y < n; ++y) {
        const double want = reference(static_cast<std::size_t>(x),
                                      static_cast<std::size_t>(y));
        mismatches += !sameBits(row[static_cast<std::size_t>(y)], want);
        mismatches += !sameBits(oracle.distance(x, y), want);
      }
    }
    EXPECT_EQ(mismatches, 0);

    const auto un = static_cast<std::size_t>(n);
    const msc::graph::OracleStats s = oracle.stats();
    EXPECT_EQ(s.rowQueries, un);
    EXPECT_EQ(s.rowHits, s.rowQueries);
    EXPECT_EQ(s.pointQueries, un * un);
    EXPECT_EQ(s.rowBuilds, 0u);
    EXPECT_EQ(s.rowsResident, un);
    EXPECT_EQ(s.residentBytes, un * un * sizeof(double) + 64);
    EXPECT_TRUE(oracle.landmarks().empty());
    EXPECT_EQ(oracle.acquireRowLease(), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ResidentMode, ::testing::Values(1, 4));

// Eight readers share one resident oracle with no lock on the read path;
// every value must still be the reference bits, and the always-on counters
// must add up exactly.
TEST(ResidentMode, ConcurrentReadersSeeReferenceBits) {
  const auto g = msc::test::randomGraph(80, 0.06, 61);
  const auto reference = msc::graph::allPairsDistances(g);
  const DistanceOracle oracle(std::make_shared<const Graph>(g),
                              DistanceOracle::AllRowsResident{2});
  const int n = g.nodeCount();
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < kIters; ++iter) {
        const auto x = static_cast<NodeId>((t * 37 + iter * 11) % n);
        const auto y = static_cast<NodeId>((t * 5 + iter * 29) % n);
        const auto row = oracle.distancesFrom(x);
        for (NodeId v = 0; v < n; ++v) {
          if (!sameBits(row[static_cast<std::size_t>(v)],
                        reference(static_cast<std::size_t>(x),
                                  static_cast<std::size_t>(v)))) {
            mismatches.fetch_add(1);
          }
        }
        if (!sameBits(oracle.distance(x, y),
                      reference(static_cast<std::size_t>(x),
                                static_cast<std::size_t>(y)))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  const msc::graph::OracleStats s = oracle.stats();
  EXPECT_EQ(s.rowQueries, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(s.pointQueries, std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(s.rowHits, s.rowQueries);
}

// Auto is the static node-count rule: all rows resident up to
// kDenseAutoNodeLimit nodes, lazy one node past it.
TEST(AutoMode, DenseAtTheLimitPairCentricJustAbove) {
  const int limit = msc::graph::kDenseAutoNodeLimit;
  const auto atLimit = msc::graph::makeDistanceOracle(
      std::make_shared<const Graph>(limit), DistanceMode::Auto, 8, 2);
  EXPECT_STREQ(atLimit->mode(), "dense");
  EXPECT_EQ(atLimit->cachedRowCount(), static_cast<std::size_t>(limit));

  const auto above = msc::graph::makeDistanceOracle(
      std::make_shared<const Graph>(limit + 1), DistanceMode::Auto, 8, 2);
  EXPECT_STREQ(above->mode(), "pair_centric");
  EXPECT_LE(above->cachedRowCount(), 8u);  // landmark rows only
}

// An Auto graph keeps the mode it was built with for its whole cache life:
// repeated solves reuse the one oracle (one build, the rest hits) even once
// the lazy rows they cached outgrow half the dense matrix. The graph is
// edgeless so every row is a cheap fill.
TEST(AutoMode, RepeatedServeSolvesBuildTheOracleOnce) {
  const int n = msc::graph::kDenseAutoNodeLimit + 1;
  msc::serve::InstanceCache cache(/*byteBudget=*/0, /*oracleRowBudgetBytes=*/0);
  const std::string graphKey = cache.putGraph(Graph(n), DistanceMode::Auto);
  // 2 * 560 distinct endpoints: their rows exceed n^2 * 8 / 2 bytes.
  std::vector<SocialPair> pairs;
  for (NodeId i = 0; i < 560; ++i) pairs.push_back({2 * i, 2 * i + 1});
  const std::string pairsKey = cache.putPairs(pairs);

  for (int solve = 0; solve < 3; ++solve) {
    SCOPED_TRACE(solve);
    bool hit = false;
    const Instance inst = cache.instance(graphKey, pairsKey, 1.0, 2, &hit);
    EXPECT_EQ(hit, solve > 0);
    EXPECT_STREQ(inst.distanceOracle().mode(), "pair_centric");
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.apspComputes, 1u);
  EXPECT_EQ(stats.apspHits, 2u);
  EXPECT_EQ(stats.oraclesPairCentric, 1u);
  EXPECT_EQ(stats.oraclesDense, 0u);
  EXPECT_GT(2 * stats.oraclePairCentric.residentBytes,
            static_cast<std::size_t>(n) * n * sizeof(double));
}

}  // namespace

// Property suite for the DistanceOracle seam (ALGORITHMS.md §15): the
// pair-centric backend must be observationally equivalent to the dense
// matrix everywhere the solvers look. Sweeps every src/gen generator and
// asserts sigma/mu/nu agree exactly between backends at 1 and 4 threads,
// plus the corner cases the equivalence argument leans on: disconnected
// pairs (kInfDist), degenerate landmark counts, ALT point-query vs row
// bit-identity, and ShortcutRowStore vs the full-matrix relaxation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
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
using msc::graph::DenseMatrixOracle;
using msc::graph::DistanceMode;
using msc::graph::Graph;
using msc::graph::kInfDist;
using msc::graph::NodeId;
using msc::graph::PairCentricOracle;

struct GenCase {
  std::string name;
  Graph graph;
};

// One representative topology per generator, sized so the dense path stays
// cheap but paths are several edges long (where the backends could differ).
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
// trivially. Deliberately NOT equal to any pair distance — the backends
// are allowed to differ in the last ulp, so a threshold sitting exactly
// on a distance would make the <= dt comparison backend-dependent (the
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

    // Same placement evaluated by both backends: run greedy on the dense
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
    // backend: same picks, same value.
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
    PairCentricOracle oracle(shared,
                             PairCentricOracle::Config{landmarks});
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
  PairCentricOracle oracle(shared, PairCentricOracle::Config{4});

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
      PairCentricOracle fresh(shared, PairCentricOracle::Config{4});
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
  const DenseMatrixOracle oracle(base);

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

}  // namespace

#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/dynamic_series.h"
#include "gen/erdos_renyi.h"
#include "gen/gowalla.h"
#include "gen/grid.h"
#include "gen/mobility.h"
#include "gen/random_geometric.h"
#include "gen/watts_strogatz.h"
#include "graph/apsp.h"
#include "graph/distance_oracle.h"
#include "helpers.h"

namespace {

using msc::graph::dijkstra;
using msc::graph::Graph;
using msc::graph::kInfDist;

TEST(Dijkstra, LineGraphDistances) {
  const auto g = msc::test::lineGraph(5, 2.0);
  const auto tree = dijkstra(g, 0);
  for (int v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(tree.dist[static_cast<std::size_t>(v)], 2.0 * v);
  }
}

TEST(Dijkstra, PrefersShorterDetour) {
  // 0-1 direct cost 10; 0-2-1 cost 3.
  Graph g(3);
  g.addEdge(0, 1, 10.0);
  g.addEdge(0, 2, 1.0);
  g.addEdge(2, 1, 2.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 3.0);
  EXPECT_EQ(tree.parent[1], 2);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_EQ(tree.dist[2], kInfDist);
  EXPECT_EQ(tree.dist[3], kInfDist);
  EXPECT_EQ(tree.parent[2], -1);
}

TEST(Dijkstra, ZeroLengthEdges) {
  Graph g(3);
  g.addEdge(0, 1, 0.0);
  g.addEdge(1, 2, 0.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
}

TEST(Dijkstra, SourceValidation) {
  Graph g(2);
  EXPECT_THROW(dijkstra(g, 2), std::out_of_range);
  EXPECT_THROW(dijkstra(g, -1), std::out_of_range);
}

TEST(DijkstraBounded, RespectsLimitAndIsExactWithin) {
  const auto g = msc::test::lineGraph(10, 1.0);
  const auto bounded = msc::graph::dijkstraBounded(g, 0, 4.5);
  for (int v = 0; v <= 4; ++v) {
    EXPECT_DOUBLE_EQ(bounded.dist[static_cast<std::size_t>(v)], 1.0 * v);
  }
  for (int v = 5; v < 10; ++v) {
    EXPECT_EQ(bounded.dist[static_cast<std::size_t>(v)], kInfDist);
  }
  EXPECT_THROW(msc::graph::dijkstraBounded(g, 0, -1.0), std::invalid_argument);
}

TEST(DijkstraDistance, PointToPoint) {
  const auto g = msc::test::cycleGraph(6, 1.0);
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 0, 3), 3.0);
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 0, 5), 1.0);  // wrap
  EXPECT_DOUBLE_EQ(msc::graph::dijkstraDistance(g, 2, 2), 0.0);
}

TEST(ExtractPath, ReconstructsNodeSequence) {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 1.0);
  g.addEdge(2, 3, 1.0);
  g.addEdge(0, 3, 10.0);
  const auto tree = dijkstra(g, 0);
  const auto path = msc::graph::extractPath(tree, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<msc::graph::NodeId>{0, 1, 2, 3}));
}

TEST(ExtractPath, UnreachableReturnsNullopt) {
  Graph g(3);
  g.addEdge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_FALSE(msc::graph::extractPath(tree, 0, 2).has_value());
}

// ----------------------------------------------------------- Property ----

class DijkstraVsFloyd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraVsFloyd, ApspStrategiesAgree) {
  const auto g = msc::test::randomGraph(40, 0.08, GetParam());
  const auto viaDijkstra = msc::graph::allPairsDistances(g);
  const auto viaFloyd = msc::graph::allPairsDistancesFloydWarshall(g);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      if (viaFloyd(i, j) == kInfDist) {
        EXPECT_EQ(viaDijkstra(i, j), kInfDist);
      } else {
        EXPECT_NEAR(viaDijkstra(i, j), viaFloyd(i, j), 1e-9);
      }
    }
  }
}

TEST_P(DijkstraVsFloyd, MatrixIsSymmetricWithZeroDiagonal) {
  const auto g = msc::test::randomGraph(30, 0.1, GetParam());
  const auto d = msc::graph::allPairsDistances(g);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 30; ++j) EXPECT_EQ(d(i, j), d(j, i));
  }
}

TEST_P(DijkstraVsFloyd, TriangleInequality) {
  const auto g = msc::test::randomGraph(25, 0.15, GetParam() + 1000);
  const auto d = msc::graph::allPairsDistances(g);
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < 25; ++j) {
      for (std::size_t k = 0; k < 25; ++k) {
        if (d(i, k) == kInfDist || d(k, j) == kInfDist) continue;
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsFloyd,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------ Row kernel ----
//
// dijkstraRow must reproduce dijkstra(g, s).dist bit for bit: its heap
// settles ties in a different order, but every final distance is the same
// minimum of fl(d(u) + l(u, v)) over v's neighbours.

std::vector<double> kernelRow(const Graph& g, msc::graph::NodeId s) {
  std::vector<double> row(static_cast<std::size_t>(g.nodeCount()), -1.0);
  msc::graph::dijkstraRow(g, s, row);
  return row;
}

void expectRowMatchesTree(const Graph& g, msc::graph::NodeId s) {
  const auto row = kernelRow(g, s);
  const auto tree = dijkstra(g, s);
  ASSERT_EQ(row.size(), tree.dist.size());
  for (std::size_t v = 0; v < row.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(row[v]),
              std::bit_cast<std::uint64_t>(tree.dist[v]))
        << "source " << s << " target " << v;
  }
}

void expectAllRowsMatchTree(const Graph& g, int maxSources = 64) {
  const int n = g.nodeCount();
  const int stride = n <= maxSources ? 1 : n / maxSources;
  for (int s = 0; s < n; s += stride) expectRowMatchesTree(g, s);
}

TEST(DijkstraRow, MatchesTreeOnEveryGenerator) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    msc::gen::RandomGeometricConfig rg;
    rg.nodes = 300;
    rg.seed = seed;
    expectAllRowsMatchTree(msc::gen::randomGeometric(rg).graph);

    msc::gen::GowallaConfig gw;
    gw.seed = seed;
    expectAllRowsMatchTree(msc::gen::gowallaLike(gw).graph);

    msc::gen::ErdosRenyiConfig er;
    er.nodes = 120;
    er.edgeProbability = 0.04;
    er.seed = seed;
    expectAllRowsMatchTree(msc::gen::erdosRenyi(er));

    msc::gen::BarabasiAlbertConfig ba;
    ba.nodes = 150;
    ba.seed = seed;
    expectAllRowsMatchTree(msc::gen::barabasiAlbert(ba));

    msc::gen::WattsStrogatzConfig ws;
    ws.nodes = 150;
    ws.seed = seed;
    expectAllRowsMatchTree(msc::gen::wattsStrogatz(ws));
  }
  // Unit lengths: every row is full of exact ties.
  msc::gen::GridConfig grid;
  grid.width = 17;
  grid.height = 13;
  expectAllRowsMatchTree(msc::gen::grid(grid).graph, 221);

  msc::gen::MobilityConfig mob;
  mob.timeInstances = 3;
  for (const auto& net : msc::gen::buildDynamicSeries(
           msc::gen::referencePointGroupMobility(mob), {})) {
    expectAllRowsMatchTree(net.graph);
  }
}

TEST(DijkstraRow, MatchesTreeAtCityScale) {
  msc::gen::RandomGeometricConfig rg;
  rg.nodes = 4000;
  rg.radius = 0.035;  // mean degree ~15, like the large-instance runs
  rg.seed = 12;
  expectAllRowsMatchTree(msc::gen::randomGeometric(rg).graph, 16);
}

TEST(DijkstraRow, ZeroLengthParallelAndDisconnected) {
  // Zero-length chains, parallel edges of different lengths, ties, and a
  // second component.
  Graph g(9);
  g.addEdge(0, 1, 0.0);
  g.addEdge(1, 2, 0.0);
  g.addEdge(0, 2, 0.5);
  g.addEdge(2, 3, 0.25);
  g.addEdge(2, 3, 0.125);
  g.addEdge(3, 2, 0.0625);
  g.addEdge(0, 3, 0.0625);
  g.addEdge(3, 4, 0.1);
  g.addEdge(1, 4, 0.1625);
  g.addEdge(5, 6, 1.0);
  g.addEdge(6, 7, 0.0);
  g.addEdge(5, 7, 0.0);
  expectAllRowsMatchTree(g);
  const auto row = kernelRow(g, 0);
  EXPECT_EQ(row[2], 0.0);
  EXPECT_EQ(row[3], 0.0625);
  EXPECT_EQ(row[5], kInfDist);
  EXPECT_EQ(row[8], kInfDist);

  // Random graphs with a third of the lengths zero.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto base = msc::test::randomGraph(80, 0.05, seed);
    Graph zeroed(base.nodeCount());
    int e = 0;
    for (const auto& edge : base.edges()) {
      zeroed.addEdge(edge.u, edge.v, e++ % 3 == 0 ? 0.0 : edge.length);
    }
    expectAllRowsMatchTree(zeroed, 80);
  }
}

TEST(DijkstraRow, IsolatedSourceAndSingleNode) {
  Graph g(4);
  g.addEdge(1, 2, 1.0);
  const auto row = kernelRow(g, 3);
  EXPECT_EQ(row, (std::vector<double>{kInfDist, kInfDist, kInfDist, 0.0}));
  expectRowMatchesTree(g, 3);
  expectRowMatchesTree(Graph(1), 0);
  EXPECT_EQ(kernelRow(Graph(1), 0), std::vector<double>{0.0});
}

TEST(DijkstraRow, ScratchSurvivesSizeChanges) {
  // Per-thread scratch sized for a large graph must not leak into a small
  // one, and vice versa.
  const auto big = msc::test::randomGraph(500, 0.01, 3);
  const auto small = msc::test::lineGraph(5, 2.0);
  expectRowMatchesTree(big, 7);
  expectRowMatchesTree(small, 4);
  expectRowMatchesTree(big, 499);
}

TEST(DijkstraRow, Validation) {
  Graph g(3);
  std::vector<double> row(3);
  EXPECT_THROW(msc::graph::dijkstraRow(g, 3, row), std::out_of_range);
  EXPECT_THROW(msc::graph::dijkstraRow(g, -1, row), std::out_of_range);
  std::vector<double> shortRow(2);
  EXPECT_THROW(msc::graph::dijkstraRow(g, 0, shortRow), std::invalid_argument);
}

// Rows built four at a time (per-thread heap scratch) equal rows built on
// one thread and the tree Dijkstra, bit for bit. Runs under TSan in CI.
TEST(DijkstraRow, ParallelPrefetchIsBitIdentical) {
  msc::gen::RandomGeometricConfig rg;
  rg.nodes = 1500;
  rg.radius = 0.06;
  rg.seed = 5;
  const auto graph = std::make_shared<const Graph>(
      msc::gen::randomGeometric(rg).graph);
  std::vector<msc::graph::NodeId> sources;
  for (msc::graph::NodeId v = 3; v < graph->nodeCount(); v += 23) {
    sources.push_back(v);
  }
  using msc::graph::DistanceOracle;
  const DistanceOracle serial(graph, DistanceOracle::Config{4});
  const DistanceOracle parallel(graph, DistanceOracle::Config{4});
  serial.prefetchRows(sources, 1);
  parallel.prefetchRows(sources, 4);
  for (const auto s : sources) {
    const auto a = serial.distancesFrom(s);
    const auto b = parallel.distancesFrom(s);
    const auto tree = dijkstra(*graph, s);
    ASSERT_EQ(a.size(), tree.dist.size());
    ASSERT_EQ(b.size(), tree.dist.size());
    for (std::size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[v]),
                std::bit_cast<std::uint64_t>(tree.dist[v]));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b[v]),
                std::bit_cast<std::uint64_t>(tree.dist[v]));
    }
  }
}

}  // namespace

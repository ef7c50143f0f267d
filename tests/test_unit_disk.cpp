// Differential tests: the grid-bucketed unit-disk builder against the
// O(n^2) all-pairs reference, on every spatial generator. Edge lists must
// match in endpoints, order and length bits — adjacency order sets the
// parent tie-breaks of graph::dijkstra.
#include "gen/unit_disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/dynamic_series.h"
#include "gen/gowalla.h"
#include "gen/mobility.h"
#include "gen/random_geometric.h"
#include "reference/unit_disk.h"

namespace {

using msc::gen::Point;
using msc::graph::Edge;
using msc::graph::Graph;
using msc::wireless::DistanceProportionalFailure;

void expectSameEdges(std::span<const Edge> got, const std::vector<Edge>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e].u, want[e].u) << "edge " << e;
    ASSERT_EQ(got[e].v, want[e].v) << "edge " << e;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[e].length),
              std::bit_cast<std::uint64_t>(want[e].length))
        << "edge " << e;
  }
}

const DistanceProportionalFailure kFailure{0.35, 0.95};

Graph build(std::span<const Point> positions, double radius) {
  Graph g(static_cast<int>(positions.size()));
  msc::gen::addUnitDiskEdges(g, positions, radius, kFailure);
  return g;
}

void expectMatchesReference(std::span<const Point> positions, double radius) {
  const Graph g = build(positions, radius);
  expectSameEdges(g.edges(),
                  msc::test::reference::unitDiskEdges(positions, radius,
                                                      kFailure));
}

// ------------------------------------------------------------ RG

// GoogleTest prints this struct's raw bytes into the listed test name, so
// it must have no padding: a 4-byte `nodes` would leave 4 uninitialised
// bytes in the name and make it differ between builds and runs.
struct RgCase {
  std::int64_t nodes;
  double radius;
};
static_assert(sizeof(RgCase) == sizeof(std::int64_t) + sizeof(double));

class UnitDiskRg : public ::testing::TestWithParam<RgCase> {};

TEST_P(UnitDiskRg, MatchesAllPairsReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = static_cast<int>(GetParam().nodes);
    cfg.radius = GetParam().radius;
    cfg.seed = seed;
    const auto net = msc::gen::randomGeometric(cfg);
    expectSameEdges(net.graph.edges(),
                    msc::test::reference::unitDiskEdges(
                        net.positions, cfg.radius, cfg.failure));
  }
}

// 0.15 is the paper's radius; r >= 1 puts the unit square in one cell;
// r = 0.01 at n = 2000 wants 99^2 cells, over the 2n + 16 cap, so the
// builder widens its cells.
INSTANTIATE_TEST_SUITE_P(
    Sizes, UnitDiskRg,
    ::testing::Values(RgCase{0, 0.15}, RgCase{1, 0.15}, RgCase{2, 0.15},
                      RgCase{2, 1.5}, RgCase{100, 0.15}, RgCase{300, 0.15},
                      RgCase{2000, 0.15}, RgCase{300, 1.0}, RgCase{300, 1.5},
                      RgCase{2000, 0.01}, RgCase{2000, 0.001}),
    [](const ::testing::TestParamInfo<RgCase>& info) {
      return "n" + std::to_string(info.param.nodes) + "_r" +
             std::to_string(static_cast<int>(info.param.radius * 1000));
    });

// ------------------------------------------------------------ Gowalla

TEST(UnitDiskGowalla, DefaultConfigMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    msc::gen::GowallaConfig cfg;
    cfg.seed = seed;
    const auto net = msc::gen::gowallaLike(cfg);
    expectSameEdges(net.graph.edges(),
                    msc::test::reference::unitDiskEdges(
                        net.positions, cfg.connectRadiusMeters, cfg.failure));
  }
}

TEST(UnitDiskGowalla, DenserConfigMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    msc::gen::GowallaConfig cfg;
    cfg.users = 1500;
    cfg.anchors = 3;
    cfg.connectRadiusMeters = 350.0;
    cfg.seed = seed;
    const auto net = msc::gen::gowallaLike(cfg);
    ASSERT_GT(net.graph.edgeCount(), 10u * 1500u);
    expectSameEdges(net.graph.edges(),
                    msc::test::reference::unitDiskEdges(
                        net.positions, cfg.connectRadiusMeters, cfg.failure));
  }
}

// ------------------------------------------------------------ RPGM series

TEST(UnitDiskDynamicSeries, RpgmTraceMatchesReference) {
  msc::gen::MobilityConfig mob;
  mob.timeInstances = 8;
  const auto trace = msc::gen::referencePointGroupMobility(mob);
  for (const int maxNodes : {0, 50}) {
    msc::gen::DynamicSeriesConfig cfg;
    cfg.maxNodes = maxNodes;
    const auto series = msc::gen::buildDynamicSeries(trace, cfg);
    ASSERT_EQ(series.size(), trace.positions.size());
    for (const auto& net : series) {
      expectSameEdges(net.graph.edges(),
                      msc::test::reference::unitDiskEdges(
                          net.positions, cfg.radioRangeMeters, cfg.failure));
    }
  }
}

// ------------------------------------------------------------ edge cases

TEST(UnitDisk, CoincidentPointsAreLinked) {
  std::vector<Point> positions(40, Point{0.3, 0.7});
  for (int i = 0; i < 10; ++i) positions.push_back({0.9, 0.1});
  const Graph g = build(positions, 0.05);
  EXPECT_EQ(g.edgeCount(), 40u * 39u / 2u + 10u * 9u / 2u);
  expectMatchesReference(positions, 0.05);
}

TEST(UnitDisk, TinyInputs) {
  expectMatchesReference({}, 0.1);
  expectMatchesReference(std::vector<Point>{{0.5, 0.5}}, 0.1);
  expectMatchesReference(std::vector<Point>{{0.0, 0.0}, {0.05, 0.0}}, 0.1);
  expectMatchesReference(std::vector<Point>{{0.0, 0.0}, {0.5, 0.0}}, 0.1);
}

// Pairs exactly one representable step inside the radius, placed so they
// straddle cell boundaries near every multiple of the radius. With a
// ragged box corner, x - corner rounds, and without the cell margin about
// 2% of these pairs would land two cells apart and be missed.
TEST(UnitDisk, PairsJustInsideRadiusAcrossCellBoundaries) {
  for (const double radius : {0.15, 0.1, 1.0 / 3.0, 0.07, 0.3}) {
    for (const double corner :
         {0.0, -0.6180339887498949, -0.8414709848078965, 1000.0}) {
      std::vector<Point> positions{{corner, corner}};  // pins the box corner
      std::vector<std::pair<int, int>> designated;
      for (int j = -3; j <= 3; ++j) {
        const double y = corner + (j + 4) * 1.3 * radius;
        for (int k = 1; k <= 20; ++k) {
          double xa = corner + k * radius;
          for (int step = 0; step < std::abs(j); ++step) {
            xa = std::nextafter(xa, j < 0 ? -1e9 : 1e9);
          }
          // Largest xb with xb - xa < radius (both differences are exact).
          const double up = std::numeric_limits<double>::infinity();
          double xb = xa + radius;
          while (xb - xa >= radius) xb = std::nextafter(xb, -up);
          while (std::nextafter(xb, up) - xa < radius) {
            xb = std::nextafter(xb, up);
          }
          designated.emplace_back(static_cast<int>(positions.size()),
                                  static_cast<int>(positions.size()) + 1);
          positions.push_back({xa, y});
          positions.push_back({xb, y});
        }
      }
      const auto want =
          msc::test::reference::unitDiskEdges(positions, radius, kFailure);
      for (const auto& [a, b] : designated) {
        const bool linked = std::any_of(want.begin(), want.end(),
                                        [&](const Edge& e) {
                                          return e.u == a && e.v == b;
                                        });
        ASSERT_TRUE(linked) << "pair " << a << "-" << b << " r=" << radius;
      }
      const Graph g = build(positions, radius);
      expectSameEdges(g.edges(), want);
    }
  }
}

TEST(UnitDisk, NonFiniteCoordinatesGetNoEdges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Same radio range, real RPGM positions with a few nodes broken.
  msc::gen::MobilityConfig mob;
  mob.groups = 3;
  mob.nodesPerGroup = 6;
  mob.timeInstances = 2;
  msc::gen::MobilityTrace trace = msc::gen::referencePointGroupMobility(mob);
  const std::vector<std::size_t> broken{0, 5, 6, 11};
  trace.positions[0][0] = {nan, 10.0};
  trace.positions[0][5] = {inf, 10.0};
  trace.positions[0][6] = {inf, 10.0};
  trace.positions[0][11] = {-inf, nan};
  trace.positions[1][5] = {10.0, -inf};
  trace.positions[1][6] = {10.0, -inf};
  // 300 m uses the grid; 1e6 m is one cell and links every finite pair.
  for (const double range : {300.0, 1e6}) {
    msc::gen::DynamicSeriesConfig cfg;
    cfg.radioRangeMeters = range;
    const auto series = msc::gen::buildDynamicSeries(trace, cfg);
    ASSERT_EQ(series.size(), 2u);
    for (const auto& net : series) {
      expectSameEdges(net.graph.edges(),
                      msc::test::reference::unitDiskEdges(
                          net.positions, cfg.radioRangeMeters, cfg.failure));
    }
    for (const std::size_t v : broken) {
      EXPECT_EQ(series[0].graph.degree(static_cast<int>(v)), 0);
    }
    EXPECT_EQ(series[1].graph.degree(5), 0);
    EXPECT_EQ(series[1].graph.degree(6), 0);
    if (range == 1e6) {
      EXPECT_EQ(series[0].graph.edgeCount(), 14u * 13u / 2u);
      EXPECT_EQ(series[1].graph.edgeCount(), 16u * 15u / 2u);
    }
  }

  // Nothing finite at all, and an infinite radius.
  const std::vector<Point> allBroken{{nan, nan}, {inf, 0.0}, {0.0, -inf}};
  EXPECT_EQ(build(allBroken, 1.0).edgeCount(), 0u);
  expectMatchesReference(
      std::vector<Point>{{0.0, 0.0}, {5.0, 5.0}, {nan, 1.0}, {-1e300, 1e300}},
      inf);
}

TEST(UnitDisk, ExtentOverflowFallsBackToOneCell) {
  const std::vector<Point> positions{
      {-1.5e308, 0.0}, {1.5e308, 0.0}, {0.0, 0.0}, {0.5, 0.0}, {1.5e308, 1.0}};
  expectMatchesReference(positions, 1.0);
  expectMatchesReference(positions, 1e308);
}

TEST(UnitDisk, Validation) {
  Graph g(2);
  const std::vector<Point> two{{0.0, 0.0}, {0.1, 0.0}};
  EXPECT_THROW(msc::gen::addUnitDiskEdges(g, two, 0.0, kFailure),
               std::invalid_argument);
  EXPECT_THROW(msc::gen::addUnitDiskEdges(
                   g, two, std::numeric_limits<double>::quiet_NaN(), kFailure),
               std::invalid_argument);
  const std::vector<Point> three{{0.0, 0.0}, {0.1, 0.0}, {0.2, 0.0}};
  EXPECT_THROW(msc::gen::addUnitDiskEdges(g, three, 0.5, kFailure),
               std::invalid_argument);
}

}  // namespace

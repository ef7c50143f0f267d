// Large-instance smoke test for the pair-centric distance backend: proves
// the O(n^2) wall is actually gone. Builds an n = 5*10^4 random-geometric
// network (the dense matrix alone would be n^2 * 8 B = 20 GB), solves
// greedy k = 5 over the pair-node candidate universe, and fails the
// process if peak RSS exceeds the budget — so a regression that sneaks a
// matrix materialization back onto the solve path turns CI red instead of
// silently OOMing real workloads. Each output line carries the wall
// seconds of its phase (gen_s, prefetch_s, greedy_s).
//
// Knobs (env): MSC_SMOKE_NODES (default 50000), MSC_SMOKE_PAIRS (500),
// MSC_SMOKE_RSS_MB (2048).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/candidates.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sigma.h"
#include "gen/random_geometric.h"
#include "graph/distance_oracle.h"
#include "util/env.h"
#include "util/rng.h"

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

long peakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024;  // Linux reports KiB
}

}  // namespace

int main() {
  const int nodes =
      static_cast<int>(msc::util::envInt("MSC_SMOKE_NODES", 50000));
  const int pairCount =
      static_cast<int>(msc::util::envInt("MSC_SMOKE_PAIRS", 500));
  const long rssBudgetMb = msc::util::envInt("MSC_SMOKE_RSS_MB", 2048);

  msc::gen::RandomGeometricConfig cfg;
  cfg.nodes = nodes;
  // Degree ~ n * pi * r^2: r = 0.01 keeps ~15 neighbors at n = 5*10^4 —
  // connected w.h.p. but sparse enough that one Dijkstra row is cheap.
  cfg.radius = 0.01;
  cfg.seed = 1;
  const auto genStart = std::chrono::steady_clock::now();
  auto net = msc::gen::randomGeometric(cfg);
  std::printf("graph: n=%d m=%zu gen_s=%.3f peak_rss=%ld MB\n",
              net.graph.nodeCount(), net.graph.edgeCount(),
              secondsSince(genStart), peakRssMb());

  msc::util::Rng rng(7);
  std::vector<msc::core::SocialPair> pairs;
  while (static_cast<int>(pairs.size()) < pairCount) {
    const auto u = static_cast<msc::graph::NodeId>(
        rng.below(static_cast<std::uint64_t>(nodes)));
    const auto w = static_cast<msc::graph::NodeId>(
        rng.below(static_cast<std::uint64_t>(nodes)));
    if (u == w) continue;
    pairs.push_back({std::min(u, w), std::max(u, w)});
  }

  const auto graph =
      std::make_shared<const msc::graph::Graph>(std::move(net.graph));
  const auto oracle = msc::graph::makeDistanceOracle(
      graph, msc::graph::DistanceMode::PairCentric, /*landmarks=*/8,
      /*threads=*/0);

  // Threshold at the 25th percentile of the finite pair distances: ~75%
  // of the pairs start unsatisfied, so greedy has real gains to find.
  std::vector<msc::graph::NodeId> endpoints;
  for (const auto& p : pairs) {
    endpoints.push_back(p.u);
    endpoints.push_back(p.w);
  }
  const auto prefetchStart = std::chrono::steady_clock::now();
  oracle->prefetchRows(endpoints, /*threads=*/0);
  const double prefetchSeconds = secondsSince(prefetchStart);
  std::vector<double> finite;
  for (const auto& p : pairs) {
    const double d = oracle->distance(p.u, p.w);
    if (d != msc::graph::kInfDist) finite.push_back(d);
  }
  std::sort(finite.begin(), finite.end());
  const double dt = finite.empty() ? 1.0 : finite[finite.size() / 4];

  const msc::core::Instance inst(graph, oracle, std::move(pairs), dt,
                                 /*threads=*/0);
  std::printf(
      "oracle: mode=%s row_builds=%llu prefetch_s=%.3f resident=%zu MB "
      "d_t=%.4f peak_rss=%ld MB\n",
      inst.distanceOracle().mode(),
      static_cast<unsigned long long>(oracle->stats().rowBuilds),
      prefetchSeconds,
      inst.distanceOracle().residentBytes() >> 20, dt, peakRssMb());

  // The scalable candidate universe: shortcuts between pair endpoints
  // (the serve path does the same on this backend) — not all n*(n-1)/2.
  const auto& nodesOfPairs = inst.pairNodes();
  msc::core::ShortcutList list;
  list.reserve(nodesOfPairs.size() * (nodesOfPairs.size() - 1) / 2);
  for (std::size_t i = 0; i < nodesOfPairs.size(); ++i) {
    for (std::size_t j = i + 1; j < nodesOfPairs.size(); ++j) {
      list.push_back(msc::core::Shortcut::make(nodesOfPairs[i],
                                               nodesOfPairs[j]));
    }
  }
  const msc::core::CandidateSet cands(std::move(list));

  msc::core::SigmaEvaluator sigma(inst);
  const double base = sigma.value({});
  const auto greedyStart = std::chrono::steady_clock::now();
  const auto result = msc::core::greedyMaximize(
      sigma, cands, msc::core::SolveOptions{.k = 5, .threads = 0});
  const double greedySeconds = secondsSince(greedyStart);
  const long rss = peakRssMb();
  std::printf(
      "greedy: k=5 candidates=%zu sigma %.0f -> %.0f greedy_s=%.3f "
      "peak_rss=%ld MB (budget %ld MB)\n",
      cands.size(), base, result.value, greedySeconds, rss, rssBudgetMb);

  bool ok = true;
  if (result.value < base) {
    std::printf("FAIL: greedy decreased sigma\n");
    ok = false;
  }
  if (rss > rssBudgetMb) {
    std::printf("FAIL: peak RSS %ld MB exceeds budget %ld MB — did the "
                "O(n^2) matrix sneak back onto the solve path?\n",
                rss, rssBudgetMb);
    ok = false;
  }
  std::printf(ok ? "PASS\n" : "FAIL\n");
  return ok ? 0 : 1;
}

// Dijkstra shortest paths on the base graph.
//
// Four variants cover the library's needs:
//   * a distance-only row kernel (APSP, distance-oracle rows): indexed
//     4-ary heap with decrease-key, no parent array, per-thread scratch,
//   * full single-source tree (routing, disjoint paths),
//   * bounded search that never expands beyond a distance limit (the MSC
//     distance requirement d_t makes most queries short-range),
//   * point-to-point with target early exit (used by path reconstruction
//     and by the overlay evaluator's cross-checks).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace msc::graph {

/// Result of a single-source run: dist[v] (kInfDist if unreachable) and
/// parent[v] (-1 for the source and unreachable nodes).
struct ShortestPathTree {
  std::vector<double> dist;
  std::vector<NodeId> parent;
};

/// Distance-only single-source Dijkstra: writes d(source, v) into dist[v]
/// (kInfDist if unreachable). Requires dist.size() == g.nodeCount().
/// Allocates nothing after a thread's first call at this size: its heap
/// scratch is per thread and reused. Bit-identical to
/// dijkstra(g, source).dist, whatever order the heap settles ties in
/// (docs/ALGORITHMS.md §19). Counts as one dijkstra.runs.
void dijkstraRow(const Graph& g, NodeId source, std::span<double> dist);

/// Full single-source Dijkstra from `source`. Parent ties break by the
/// adjacency order the graph was built in.
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Bounded Dijkstra: nodes at distance > limit are left at kInfDist
/// (exact for all nodes within the limit). `limit` must be >= 0.
ShortestPathTree dijkstraBounded(const Graph& g, NodeId source, double limit);

/// Point-to-point distance with early exit once `target` is settled.
double dijkstraDistance(const Graph& g, NodeId source, NodeId target);

/// Reconstructs the node sequence source -> ... -> target from a tree;
/// nullopt if target is unreachable.
std::optional<std::vector<NodeId>> extractPath(const ShortestPathTree& tree,
                                               NodeId source, NodeId target);

}  // namespace msc::graph

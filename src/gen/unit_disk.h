// Unit-disk edge builder shared by the spatial generators.
//
// RG (§VII-A1), the Gowalla-like network and every snapshot of a mobility
// series link two nodes exactly when their Euclidean distance is below a
// radius. Testing all n^2 position pairs makes generation quadratic; this
// helper buckets positions into a grid of cells slightly wider than the
// radius, so each node only tests the nodes of its 3x3 block of cells.
// The emitted edge list is the one the all-pairs loop emits, in the same
// lexicographic (i, j) order and with bit-identical lengths
// (docs/ALGORITHMS.md §19).
#pragma once

#include <span>

#include "gen/point.h"
#include "graph/graph.h"
#include "wireless/link_model.h"

namespace msc::gen {

/// Adds the edge (i, j, failure.lengthAt(d)) for every i < j with
/// d = euclidean(positions[i], positions[j]) < radius, ordered by (i, j).
/// A node with a non-finite coordinate gets no edges. Requires
/// positions.size() == g.nodeCount() and radius > 0 (throws
/// std::invalid_argument otherwise).
void addUnitDiskEdges(msc::graph::Graph& g, std::span<const Point> positions,
                      double radius,
                      const msc::wireless::DistanceProportionalFailure& failure);

}  // namespace msc::gen

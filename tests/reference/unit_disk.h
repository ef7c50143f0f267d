// O(n^2) reference for gen::addUnitDiskEdges: the all-pairs loop the
// spatial generators (RG, Gowalla-like, dynamic series) ran before the
// grid. Differential tests compare the grid builder's edge list to it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gen/point.h"
#include "graph/graph.h"
#include "wireless/link_model.h"

namespace msc::test::reference {

/// Every (i, j, failure.lengthAt(d)) with i < j and
/// d = euclidean(positions[i], positions[j]) < radius, in (i, j) order.
inline std::vector<msc::graph::Edge> unitDiskEdges(
    std::span<const msc::gen::Point> positions, double radius,
    const msc::wireless::DistanceProportionalFailure& failure) {
  std::vector<msc::graph::Edge> edges;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const double d = msc::gen::euclidean(positions[i], positions[j]);
      if (d < radius) {
        edges.push_back({static_cast<msc::graph::NodeId>(i),
                         static_cast<msc::graph::NodeId>(j),
                         failure.lengthAt(d)});
      }
    }
  }
  return edges;
}

}  // namespace msc::test::reference

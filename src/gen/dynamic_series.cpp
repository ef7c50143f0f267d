#include "gen/dynamic_series.h"

#include <stdexcept>

#include "gen/unit_disk.h"

namespace msc::gen {

std::vector<SpatialNetwork> buildDynamicSeries(
    const MobilityTrace& trace, const DynamicSeriesConfig& config) {
  if (!(config.radioRangeMeters > 0.0)) {
    throw std::invalid_argument("buildDynamicSeries: radio range must be > 0");
  }
  int n = trace.nodeCount;
  if (config.maxNodes > 0 && config.maxNodes < n) n = config.maxNodes;

  std::vector<SpatialNetwork> series;
  series.reserve(trace.positions.size());
  for (const auto& snapshot : trace.positions) {
    if (static_cast<int>(snapshot.size()) < n) {
      throw std::invalid_argument(
          "buildDynamicSeries: trace snapshot smaller than node count");
    }
    SpatialNetwork net;
    net.graph = msc::graph::Graph(n);
    net.positions.assign(snapshot.begin(), snapshot.begin() + n);
    addUnitDiskEdges(net.graph, net.positions, config.radioRangeMeters,
                     config.failure);
    series.push_back(std::move(net));
  }
  return series;
}

}  // namespace msc::gen

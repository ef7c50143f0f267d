#include "gen/random_geometric.h"

#include <stdexcept>

#include "gen/unit_disk.h"
#include "graph/components.h"
#include "util/rng.h"

namespace msc::gen {

SpatialNetwork randomGeometric(const RandomGeometricConfig& config) {
  if (config.nodes < 0) {
    throw std::invalid_argument("randomGeometric: negative node count");
  }
  if (!(config.radius > 0.0)) {
    throw std::invalid_argument("randomGeometric: radius must be > 0");
  }
  util::Rng rng(config.seed);
  SpatialNetwork net;
  net.graph = msc::graph::Graph(config.nodes);
  net.positions.reserve(static_cast<std::size_t>(config.nodes));
  for (int i = 0; i < config.nodes; ++i) {
    net.positions.push_back({rng.uniform(), rng.uniform()});
  }
  addUnitDiskEdges(net.graph, net.positions, config.radius, config.failure);
  return net;
}

SpatialNetwork randomGeometricConnected(RandomGeometricConfig config,
                                        double minLargestComponentFraction,
                                        int maxAttempts) {
  if (minLargestComponentFraction < 0.0 || minLargestComponentFraction > 1.0) {
    throw std::invalid_argument(
        "randomGeometricConnected: fraction outside [0, 1]");
  }
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    SpatialNetwork net = randomGeometric(config);
    const int largest = msc::graph::largestComponentSize(net.graph);
    if (static_cast<double>(largest) >=
        minLargestComponentFraction * static_cast<double>(config.nodes)) {
      return net;
    }
    ++config.seed;
  }
  throw std::runtime_error(
      "randomGeometricConnected: no sufficiently connected instance found; "
      "increase radius or maxAttempts");
}

}  // namespace msc::gen

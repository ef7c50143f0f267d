#include "gen/gowalla.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "gen/unit_disk.h"
#include "util/rng.h"

namespace msc::gen {

SpatialNetwork gowallaLike(const GowallaConfig& config) {
  if (config.users < 0) {
    throw std::invalid_argument("gowallaLike: negative user count");
  }
  if (config.anchors <= 0 || config.venuesPerAnchor <= 0) {
    throw std::invalid_argument("gowallaLike: need at least one venue");
  }
  if (!(config.areaMeters > 0.0) || !(config.connectRadiusMeters > 0.0)) {
    throw std::invalid_argument("gowallaLike: area/radius must be positive");
  }
  util::Rng rng(config.seed);

  auto clamp01Area = [&](double v) {
    if (v < 0.0) return 0.0;
    if (v > config.areaMeters) return config.areaMeters;
    return v;
  };

  // Hot-spot anchors, then venues scattered around them.
  std::vector<Point> venues;
  venues.reserve(
      static_cast<std::size_t>(config.anchors * config.venuesPerAnchor));
  for (int a = 0; a < config.anchors; ++a) {
    const Point anchor{rng.uniform(0.0, config.areaMeters),
                       rng.uniform(0.0, config.areaMeters)};
    for (int v = 0; v < config.venuesPerAnchor; ++v) {
      venues.push_back(
          {clamp01Area(rng.gaussian(anchor.x, config.anchorSpreadMeters)),
           clamp01Area(rng.gaussian(anchor.y, config.anchorSpreadMeters))});
    }
  }

  // Zipf-like venue popularity.
  std::vector<double> cumulative(venues.size());
  double total = 0.0;
  for (std::size_t i = 0; i < venues.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), config.popularitySkew);
    cumulative[i] = total;
  }

  SpatialNetwork net;
  net.graph = msc::graph::Graph(config.users);
  net.positions.reserve(static_cast<std::size_t>(config.users));
  for (int u = 0; u < config.users; ++u) {
    const double pick = rng.uniform(0.0, total);
    std::size_t venue = 0;
    while (venue + 1 < cumulative.size() && cumulative[venue] < pick) ++venue;
    net.positions.push_back(
        {clamp01Area(rng.gaussian(venues[venue].x, config.userSpreadMeters)),
         clamp01Area(rng.gaussian(venues[venue].y, config.userSpreadMeters))});
  }

  addUnitDiskEdges(net.graph, net.positions, config.connectRadiusMeters,
                   config.failure);
  return net;
}

}  // namespace msc::gen

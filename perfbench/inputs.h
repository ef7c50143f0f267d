// Seeded paper-regime inputs shared by the `paper` and `reliability`
// workloads: a topology from the gen layer plus important pairs sampled
// the way eval::makeRgInstance / makeGowallaInstance sample them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "graph/graph.h"
#include "layers.h"
#include "probe.h"

namespace perfbench {

struct GeneratedInput {
  msc::graph::Graph graph;
  std::vector<msc::core::SocialPair> pairs;
  /// Failure threshold p_t and its distance form d_t.
  double pt = 0.0;
  double dt = 0.0;
};

/// RG topology (paper §VII-A: failure slope 0.5, p_max 0.95) with `pairs`
/// important pairs at threshold `pt`. Single-threaded: at n <= 300 the
/// thread pool's hand-off would cost more than the APSP it splits.
GeneratedInput makeRgInput(int nodes, double radius, int pairs, double pt,
                           std::uint64_t seed, LayerProbe& probe,
                           Tracer* tracer);

/// Gowalla-like check-in network (n = 134) with `pairs` important pairs at
/// threshold `pt`. Seeds whose network has too few eligible pairs are
/// skipped deterministically.
GeneratedInput makeGowallaInput(int pairs, double pt, std::uint64_t seed,
                                LayerProbe& probe, Tracer* tracer);

}  // namespace perfbench

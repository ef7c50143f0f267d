#include "inputs.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/instance.h"
#include "gen/gowalla.h"
#include "gen/random_geometric.h"
#include "graph/apsp.h"
#include "util/rng.h"
#include "wireless/link_model.h"

namespace perfbench {
namespace {

/// Generates topologies from successive sub-seeds until one has `pairs`
/// eligible important pairs, then samples them on its APSP matrix.
template <class MakeGraph>
GeneratedInput generate(const char* genSpan, MakeGraph makeGraph, int pairs,
                        double pt, std::uint64_t seed, LayerProbe& probe,
                        Tracer* tracer) {
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    GeneratedInput in;
    {
      const Tracer::Scope span(tracer, genSpan, "gen");
      const std::int64_t t0 = nowNs();
      in.graph = makeGraph(mixSeed(seed, attempt));
      probe.addGen(secondsSince(t0), in.graph.edgeCount());
    }
    in.pt = pt;
    in.dt = msc::wireless::failureThresholdToDistance(pt);
    const Tracer::Scope span(tracer, "graph.apsp", "graph");
    const auto dist = msc::graph::allPairsDistances(in.graph);
    msc::util::Rng rng(mixSeed(seed, 100 + attempt));
    try {
      in.pairs = msc::core::sampleImportantPairs(in.graph, dist, pairs, in.dt, rng);
      return in;
    } catch (const std::runtime_error&) {
      // Too few eligible pairs on this topology: try the next sub-seed.
    }
  }
  throw std::runtime_error(std::string(genSpan) +
                           ": no seed yields enough important pairs");
}

}  // namespace

GeneratedInput makeRgInput(int nodes, double radius, int pairs, double pt,
                           std::uint64_t seed, LayerProbe& probe,
                           Tracer* tracer) {
  const auto make = [&](std::uint64_t s) {
    msc::gen::RandomGeometricConfig cfg;
    cfg.nodes = nodes;
    cfg.radius = radius;
    cfg.failure = msc::wireless::DistanceProportionalFailure(0.5, 0.95);
    cfg.seed = s;
    return msc::gen::randomGeometricConnected(cfg, 0.9, 256).graph;
  };
  return generate("gen.random_geometric", make, pairs, pt, seed, probe, tracer);
}

GeneratedInput makeGowallaInput(int pairs, double pt, std::uint64_t seed,
                                LayerProbe& probe, Tracer* tracer) {
  const auto make = [](std::uint64_t s) {
    msc::gen::GowallaConfig cfg;
    cfg.seed = s;
    return msc::gen::gowallaLike(cfg).graph;
  };
  return generate("gen.gowalla", make, pairs, pt, seed, probe, tracer);
}

}  // namespace perfbench

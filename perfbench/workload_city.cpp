// `city`: one large random-geometric topology, many pair-set queries.
//
// Setup generates an n = 2·10^4 RG graph (about 15 neighbours per node)
// and a pair-centric distance oracle with a bounded row cache, then
// calibrates d_t on pairs from a fixed hot set of nodes. Each op is one
// query: a fresh seeded pair set whose endpoints come partly from the hot
// set (so queries share oracle rows), a core::Instance over the shared
// oracle (which prefetches the pair-node rows), and greedy k = 5 over the
// pair-node candidates — AA on every third query.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <vector>

#include "core/greedy.h"
#include "core/instance.h"
#include "core/sandwich.h"
#include "core/sigma.h"
#include "gen/random_geometric.h"
#include "graph/distance_oracle.h"
#include "probe.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = msc::core;
namespace graph = msc::graph;

class CityWorkload final : public Workload {
 public:
  explicit CityWorkload(const RunConfig& cfg)
      : cfg_(cfg),
        nodes_(cfg.tiny ? 2000 : 20000),
        pairsPerQuery_(cfg.tiny ? 20 : 100),
        hotNodes_(cfg.tiny ? 20 : 200),
        probe_(cfg.threads) {}

  void setup(Tracer* tracer) override {
    probe_.setTracer(tracer);
    msc::gen::RandomGeometricConfig gc;
    gc.nodes = nodes_;
    // Mean degree n·π·r² ≈ 15: connected w.h.p., cheap Dijkstra rows.
    gc.radius = std::sqrt(15.0 / (std::numbers::pi * nodes_));
    gc.seed = mixSeed(cfg_.seed, 1);
    {
      const Tracer::Scope span(tracer, "gen.random_geometric", "gen");
      const std::int64_t t0 = nowNs();
      auto net = msc::gen::randomGeometric(gc);
      graph_ = std::make_shared<const graph::Graph>(std::move(net.graph));
      probe_.addGen(secondsSince(t0), graph_->edgeCount());
    }
    buildOracle(tracer);

    msc::util::Rng rng(mixSeed(cfg_.seed, 2));
    hot_.clear();
    for (int i = 0; i < hotNodes_; ++i) {
      hot_.push_back(static_cast<graph::NodeId>(
          rng.below(static_cast<std::uint64_t>(nodes_))));
    }
    // Initial instance: d_t is the 25th percentile of the finite distances
    // between hot nodes, so most query pairs start unsatisfied. Taking it
    // over all hot pairs keeps d_t nearly the same for every seed.
    const Tracer::Scope span(tracer, "oracle.initial_instance", "oracle");
    oracle_->prefetchRows(hot_, cfg_.threads);
    std::vector<double> finite;
    for (std::size_t i = 0; i < hot_.size(); ++i) {
      const std::span<const double> row = oracle_->distancesFrom(hot_[i]);
      for (std::size_t j = i + 1; j < hot_.size(); ++j) {
        const double d = row[static_cast<std::size_t>(hot_[j])];
        if (d != graph::kInfDist && d > 0.0) finite.push_back(d);
      }
    }
    std::sort(finite.begin(), finite.end());
    dt_ = finite.empty() ? 1.0 : finite[finite.size() / 4];
  }

  // Generation takes about 5 s; three set-ups keep a run under a minute.
  int setupRepeats() const override { return 3; }

  void beginPhase(bool traced) override {
    // A fresh oracle, so both phases start from the same cold row cache.
    buildOracle(nullptr);
    oracle_->prefetchRows(hot_, cfg_.threads);
    traced_ = traced;
    statsBefore_ = oracle_->stats();
  }

  OpResult runOp(std::size_t index, Tracer* tracer, OpTimer& timer) override {
    probe_.setTracer(tracer);
    const std::vector<core::SocialPair> pairs = queryPairs(index);
    const bool aa = index % 3 == 2;
    const core::SolveOptions opts{.k = 5, .threads = cfg_.threads};

    OpResult r;
    r.kind = aa ? "query_aa" : "query_greedy";
    r.solve = true;
    timer.start();
    std::int64_t t0 = nowNs();
    std::unique_ptr<core::Instance> inst;
    {
      const Tracer::Scope span(tracer, "oracle.instance", "oracle");
      inst = std::make_unique<core::Instance>(graph_, oracle_, pairs, dt_,
                                              cfg_.threads);
    }
    if (traced_) probe_.addPrefetch(secondsSince(t0));
    const core::CandidateSet cands = pairNodeCandidates(*inst);
    core::ShortcutList placement;
    double value = 0.0;
    if (aa) {
      const core::SandwichResult res =
          traced_ ? probe_.sandwich(*inst, cands, opts)
                  : core::sandwichApproximation(*inst, cands, opts);
      placement = res.placement;
      value = res.sigma;
    } else if (traced_) {
      const core::GreedyResult res = probe_.sigmaGreedy(*inst, cands, opts);
      placement = res.placement;
      value = res.value;
    } else {
      core::SigmaEvaluator sigma(*inst);
      const core::GreedyResult res = core::greedyMaximize(sigma, cands, opts);
      placement = res.placement;
      value = res.value;
    }
    timer.stop();

    // Check: the reported value is σ of the placement, and no worse than σ(∅).
    const core::ShortcutList checked =
        cfg_.corrupt ? core::ShortcutList{} : placement;
    const double rescored = core::sigmaValue(*inst, checked);
    const double empty = core::sigmaValue(*inst, {});
    r.failed = rescored != value || rescored < empty;
    r.quality = rescored;
    std::ostringstream answer;
    answer.precision(17);
    answer << msc::serve::placementSpec(placement) << " = " << value;
    r.answer = answer.str();
    return r;
  }

  std::size_t qualitySolves() const override { return cfg_.tiny ? 3 : 24; }

  void layerMetrics(const Tracer& tracer, LayerMetrics& out) override {
    const double setup = tracer.totalSeconds("setup");
    out["share.gen_oracle_of_setup"] =
        setup > 0.0 ? (tracer.totalSeconds("gen.random_geometric") +
                       tracer.totalSeconds("oracle.build") +
                       tracer.totalSeconds("oracle.initial_instance")) /
                          setup
                    : 0.0;
    const double ops = tracer.totalSeconds("op");
    out["share.dijkstra_oracle_of_op"] =
        ops > 0.0 ? probe_.prefetchSeconds() / ops : 0.0;
    probe_.setOracleStats(oracleDelta(statsBefore_, oracle_->stats()),
                          oracle_->residentBytes());
    probe_.setTracer(nullptr);
    probe_.sampleDijkstra(*graph_, mixSeed(cfg_.seed, 3), 32);
    probe_.fill(out);
  }

 private:
  void buildOracle(Tracer* tracer) {
    const Tracer::Scope span(tracer, "oracle.build", "oracle");
    oracle_.reset();
    // 128 MB of rows: the hot set's rows stay resident, cold rows cycle.
    oracle_ = graph::makeDistanceOracle(graph_, graph::DistanceMode::PairCentric,
                                        /*landmarks=*/8, cfg_.threads,
                                        std::size_t{128} << 20);
  }

  std::vector<core::SocialPair> queryPairs(std::size_t index) const {
    msc::util::Rng rng(mixSeed(cfg_.seed, 1000 + index));
    const auto pick = [&]() -> graph::NodeId {
      if (rng.below(2) == 0) {
        return hot_[rng.below(hot_.size())];
      }
      return static_cast<graph::NodeId>(
          rng.below(static_cast<std::uint64_t>(nodes_)));
    };
    std::vector<core::SocialPair> pairs;
    while (static_cast<int>(pairs.size()) < pairsPerQuery_) {
      const graph::NodeId u = pick();
      const graph::NodeId w = pick();
      if (u == w) continue;
      pairs.push_back({std::min(u, w), std::max(u, w)});
    }
    return pairs;
  }

  RunConfig cfg_;
  int nodes_;
  int pairsPerQuery_;
  int hotNodes_;
  LayerProbe probe_;
  std::shared_ptr<const graph::Graph> graph_;
  std::shared_ptr<const graph::DistanceOracle> oracle_;
  std::vector<graph::NodeId> hot_;
  double dt_ = 1.0;
  bool traced_ = false;
  graph::OracleStats statsBefore_;
};

}  // namespace

std::unique_ptr<Workload> makeCityWorkload(const RunConfig& cfg) {
  return std::make_unique<CityWorkload>(cfg);
}

}  // namespace perfbench

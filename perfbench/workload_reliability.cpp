// `reliability`: Monte-Carlo σ̂ solves on the Gowalla-like network.
//
// Setup generates the repository's paper-calibrated Gowalla stand-in
// (n = 134, generator seed 9 — the paper, too, evaluates one fixed Gowalla
// network), its dense distance oracle and the list of pairs whose base
// path fails with probability above p_t = 0.05. Each op is one query: a
// fresh seeded set of 8 node-disjoint important pairs, a core::Instance
// over the shared oracle, and one solve at W = 1024 worlds and k = 2 over
// the 120 pair-node candidates — mc::sandwich on two ops of three,
// mc::greedy on the third — each op with its own world seed. Node-disjoint
// pairs keep every query's candidate universe the same size, so the
// per-run average is steady across seeds. With a larger k the multi-path
// σ̂ saturates (every pair maintained); with more pairs a solve takes
// about a second, too few per run for a tail percentile.
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/instance.h"
#include "core/sandwich.h"
#include "gen/gowalla.h"
#include "graph/distance_oracle.h"
#include "mc/reliability.h"
#include "mc/solver.h"
#include "mc/world_sampler.h"
#include "probe.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "wireless/link_model.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = msc::core;
namespace graph = msc::graph;
namespace mc = msc::mc;

constexpr int kWorlds = 1024;
constexpr int kBudget = 2;
constexpr double kPt = 0.05;

class ReliabilityWorkload final : public Workload {
 public:
  explicit ReliabilityWorkload(const RunConfig& cfg)
      : cfg_(cfg),
        pairsPerQuery_(cfg.tiny ? 4 : 8),
        dt_(msc::wireless::failureThresholdToDistance(kPt)),
        probe_(cfg.threads) {}

  void setup(Tracer* tracer) override {
    probe_.setTracer(tracer);
    msc::gen::GowallaConfig gc;
    if (cfg_.tiny) gc.users = 60;
    {
      const Tracer::Scope span(tracer, "gen.gowalla", "gen");
      const std::int64_t t0 = nowNs();
      graph_ = std::make_shared<const graph::Graph>(msc::gen::gowallaLike(gc).graph);
      probe_.addGen(secondsSince(t0), graph_->edgeCount());
    }
    {
      const Tracer::Scope span(tracer, "oracle.build", "oracle");
      // Single-threaded: at n = 134 the pool hand-off costs more than APSP.
      oracle_ = graph::makeDistanceOracle(graph_, graph::DistanceMode::Dense,
                                          /*landmarks=*/0, /*threads=*/1);
    }
    const Tracer::Scope span(tracer, "bench.eligible_pairs", "bench");
    eligible_.clear();
    for (graph::NodeId u = 0; u < graph_->nodeCount(); ++u) {
      for (graph::NodeId w = u + 1; w < graph_->nodeCount(); ++w) {
        if (oracle_->distance(u, w) > dt_) eligible_.push_back({u, w});
      }
    }
  }

  void beginPhase(bool traced) override { traced_ = traced; }

  OpResult runOp(std::size_t index, Tracer* tracer, OpTimer& timer) override {
    probe_.setTracer(tracer);
    const bool sandwich = index % 3 != 2;
    const core::SolveOptions opts{.k = kBudget,
                                  .threads = cfg_.threads,
                                  .seed = mixSeed(cfg_.seed, 5000 + index)};
    const mc::McOptions mcOpts{.worlds = kWorlds};

    OpResult r;
    r.kind = sandwich ? "mc_sandwich" : "mc_greedy";
    r.solve = true;
    timer.start();
    const core::Instance inst(graph_, oracle_, queryPairs(index), dt_, cfg_.threads);
    const core::CandidateSet cands = pairNodeCandidates(inst);
    mc::McSolveResult res;
    if (traced_) {
      res = sandwich ? probe_.mcSandwich(inst, cands, opts, kWorlds)
                     : probe_.mcGreedy(inst, cands, opts, kWorlds);
    } else {
      res = sandwich ? mc::sandwich(inst, cands, opts, mcOpts)
                     : mc::greedy(inst, cands, opts, mcOpts);
    }
    timer.stop();

    // Check: σ̂ re-scored on the same worlds matches, and mc::sandwich is
    // never below the paper's AA placement scored on those worlds.
    const mc::WorldSet worlds(inst.graph(), {.worlds = kWorlds, .seed = opts.seed});
    mc::ReliabilityEvaluator hard(inst, worlds);
    const double rescored =
        hard.evaluate(cfg_.corrupt ? core::ShortcutList{} : res.placement);
    r.failed = rescored != res.sigmaHat;
    if (sandwich) {
      const core::SandwichResult aa = core::sandwichApproximation(inst, cands, opts);
      r.failed = r.failed || res.sigmaHat < hard.evaluate(aa.placement);
    }
    r.quality = rescored;
    std::ostringstream answer;
    answer.precision(17);
    answer << msc::serve::placementSpec(res.placement) << " = " << res.sigmaHat
           << " (" << res.winner << ")";
    r.answer = answer.str();
    return r;
  }

  std::size_t qualitySolves() const override { return cfg_.tiny ? 2 : 12; }

  void layerMetrics(const Tracer& tracer, LayerMetrics& out) override {
    const double setup = tracer.totalSeconds("setup");
    out["share.gen_oracle_of_setup"] =
        setup > 0.0 ? (tracer.totalSeconds("gen.gowalla") +
                       tracer.totalSeconds("oracle.build")) /
                          setup
                    : 0.0;
    const double solve = probe_.solveSeconds();
    out["share.mc_of_solve"] =
        solve > 0.0 ? probe_.mcWallEquivalent() / solve : 0.0;
    probe_.setTracer(nullptr);
    probe_.sampleDijkstra(*graph_, mixSeed(cfg_.seed, 3), 32);
    probe_.fill(out);
  }

 private:
  /// Node-disjoint important pairs for query `index`.
  std::vector<core::SocialPair> queryPairs(std::size_t index) const {
    msc::util::Rng rng(mixSeed(cfg_.seed, 1000 + index));
    std::vector<char> used(static_cast<std::size_t>(graph_->nodeCount()), 0);
    std::vector<core::SocialPair> pairs;
    for (int attempt = 0; static_cast<int>(pairs.size()) < pairsPerQuery_;
         ++attempt) {
      if (eligible_.empty() || attempt > 100000) {
        throw std::runtime_error("reliability: too few disjoint eligible pairs");
      }
      const core::SocialPair p = eligible_[rng.below(eligible_.size())];
      if (used[static_cast<std::size_t>(p.u)] || used[static_cast<std::size_t>(p.w)]) {
        continue;
      }
      used[static_cast<std::size_t>(p.u)] = used[static_cast<std::size_t>(p.w)] = 1;
      pairs.push_back(p);
    }
    return pairs;
  }

  RunConfig cfg_;
  int pairsPerQuery_;
  double dt_;
  LayerProbe probe_;
  std::shared_ptr<const graph::Graph> graph_;
  std::shared_ptr<const graph::DistanceOracle> oracle_;
  std::vector<core::SocialPair> eligible_;
  bool traced_ = false;
};

}  // namespace

std::unique_ptr<Workload> makeReliabilityWorkload(const RunConfig& cfg) {
  return std::make_unique<ReliabilityWorkload>(cfg);
}

}  // namespace perfbench

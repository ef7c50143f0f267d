#include "probe.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/bounds.h"
#include "core/sigma.h"
#include "graph/dijkstra.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"
#include "util/rng.h"

namespace perfbench {

namespace core = msc::core;
namespace mc = msc::mc;

namespace {

double ns(std::uint64_t v) { return static_cast<double>(v) * 1e-9; }

double perSecond(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

}  // namespace

core::CandidateSet pairNodeCandidates(const core::Instance& inst) {
  const auto& nodes = inst.pairNodes();
  core::ShortcutList list;
  list.reserve(nodes.size() * (nodes.size() - 1) / 2);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      list.push_back(core::Shortcut::make(nodes[i], nodes[j]));
    }
  }
  return core::CandidateSet(std::move(list));
}

msc::graph::OracleStats oracleDelta(const msc::graph::OracleStats& before,
                                    const msc::graph::OracleStats& after) {
  msc::graph::OracleStats d = after;
  d.pointQueries -= before.pointQueries;
  d.rowQueries -= before.rowQueries;
  d.terminalBatches -= before.terminalBatches;
  d.rowBuilds -= before.rowBuilds;
  d.rowHits -= before.rowHits;
  d.altQueries -= before.altQueries;
  d.rowsEvicted -= before.rowsEvicted;
  d.rowBuildNs -= before.rowBuildNs;
  return d;
}

core::GreedyResult LayerProbe::countedGreedy(core::IncrementalEvaluator& eval,
                                             const core::SetFunction& fn,
                                             EvalCounters& counters,
                                             const core::CandidateSet& cands,
                                             const core::SolveOptions& opts) {
  CountingEvaluator counted(eval, fn, counters);
  const EvalCounters::Totals before = counters.totals();
  core::GreedyResult r = core::greedyMaximize(counted, cands, opts);
  const EvalCounters::Totals d = counters.totals() - before;
  greedy_.rounds += static_cast<std::uint64_t>(r.rounds);
  greedy_.wall += r.wallSeconds;
  greedy_.busyNs += d.gainNs;
  return r;
}

core::GreedyResult LayerProbe::sigmaGreedy(const core::Instance& inst,
                                           const core::CandidateSet& cands,
                                           const core::SolveOptions& opts) {
  const Tracer::Scope span(tracer_, "core.greedy", "core");
  const std::int64_t t0 = nowNs();
  core::SigmaEvaluator sigma(inst);
  core::GreedyResult r = countedGreedy(sigma, sigma, sigma_, cands, opts);
  solveSeconds_ += secondsSince(t0);
  return r;
}

core::SandwichResult LayerProbe::sandwich(const core::Instance& inst,
                                          const core::CandidateSet& cands,
                                          const core::SolveOptions& opts) {
  const Tracer::Scope span(tracer_, "core.sandwich", "core");
  const std::int64_t t0 = nowNs();
  core::SigmaEvaluator sigma(inst);
  core::MuEvaluator mu(inst, cands);
  core::NuEvaluator nu(inst);
  CountingEvaluator cs(sigma, sigma, sigma_);
  CountingEvaluator cm(mu, mu, mu_);
  CountingEvaluator cn(nu, nu, nu_);
  const std::uint64_t muBefore = mu_.totals().gainEvals;
  const std::uint64_t nuBefore = nu_.totals().gainEvals;
  core::SandwichResult r =
      core::sandwichApproximation(cs, cm, cn, cs, cn, cands, opts);
  muEvals_ += mu_.totals().gainEvals - muBefore;
  nuEvals_ += nu_.totals().gainEvals - nuBefore;
  // Plain greedy scans every candidate once per round: one per pick, plus
  // the scan that finds no positive gain when it stops short of k.
  const auto scans = [&](const core::ShortcutList& picks) {
    const std::size_t rounds = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(opts.k, 1)), picks.size() + 1);
    return static_cast<std::uint64_t>(cands.size()) * rounds;
  };
  muLazyBase_ += scans(r.placementMu);
  nuLazyBase_ += scans(r.placementNu);
  sandwichWall_.push_back(r.wallSeconds);
  solveSeconds_ += secondsSince(t0);
  return r;
}

core::EaResult LayerProbe::ea(const core::Instance& inst,
                              const core::CandidateSet& cands,
                              const core::SolveOptions& opts, int iterations) {
  const Tracer::Scope span(tracer_, "core.ea", "core");
  const std::int64_t t0 = nowNs();
  core::SigmaEvaluator sigma(inst);
  const CountingEvaluator cs(sigma, sigma, sigma_);
  core::EaConfig cfg;
  cfg.iterations = iterations;
  core::EaResult r = core::evolutionaryAlgorithm(cs, cands, opts, cfg);
  eaGenerations_ += r.iterations;
  eaWall_ += r.wallSeconds;
  solveSeconds_ += secondsSince(t0);
  return r;
}

core::AeaResult LayerProbe::aea(const core::Instance& inst,
                                const core::CandidateSet& cands,
                                const core::SolveOptions& opts,
                                int iterations) {
  const Tracer::Scope span(tracer_, "core.aea", "core");
  const std::int64_t t0 = nowNs();
  core::SigmaEvaluator sigma(inst);
  CountingEvaluator cs(sigma, sigma, sigma_);
  core::AeaConfig cfg;
  cfg.iterations = iterations;
  core::AeaResult r = core::adaptiveEvolutionaryAlgorithm(cs, cands, opts, cfg);
  aeaGenerations_ += r.iterations;
  aeaWall_ += r.wallSeconds;
  solveSeconds_ += secondsSince(t0);
  return r;
}

void LayerProbe::notePlanes(const core::Instance& inst, int worlds) {
  // One W-bit plane per graph node per BFS source (sources are deduped by
  // the smaller pair endpoint) plus one per edge.
  std::set<msc::graph::NodeId> sources;
  for (const core::SocialPair& p : inst.pairs()) {
    sources.insert(std::min(p.u, p.w));
  }
  const double planes =
      static_cast<double>(sources.size()) * inst.graph().nodeCount() +
      static_cast<double>(inst.graph().edgeCount());
  mcPlaneMb_ = std::max(mcPlaneMb_, planes * worlds / 8.0 / (1 << 20));
}

mc::McSolveResult LayerProbe::mcGreedy(const core::Instance& inst,
                                       const core::CandidateSet& cands,
                                       const core::SolveOptions& opts,
                                       int worlds) {
  const Tracer::Scope span(tracer_, "mc.greedy", "mc");
  const std::int64_t t0 = nowNs();
  std::int64_t t = nowNs();
  const mc::WorldSet ws(inst.graph(), {.worlds = worlds, .seed = opts.seed});
  mcSampleSeconds_ += secondsSince(t);
  t = nowNs();
  mc::ReliabilityEvaluator hard(inst, ws, mc::Objective::MaintainedCount);
  mcInitSeconds_ += secondsSince(t);
  notePlanes(inst, worlds);
  const core::GreedyResult run = countedGreedy(hard, hard, mc_, cands, opts);
  mc::McSolveResult r;
  r.placement = run.placement;
  r.winner = "mc_greedy";
  r.gainEvaluations = run.gainEvaluations;
  r.rounds = run.rounds;
  r.sigmaHat = static_cast<double>(hard.maintainedCount());
  r.wallSeconds = secondsSince(t0);
  solveSeconds_ += r.wallSeconds;
  return r;
}

mc::McSolveResult LayerProbe::mcSandwich(const core::Instance& inst,
                                         const core::CandidateSet& cands,
                                         const core::SolveOptions& opts,
                                         int worlds) {
  const Tracer::Scope span(tracer_, "mc.sandwich", "mc");
  const std::int64_t t0 = nowNs();
  std::int64_t t = nowNs();
  const mc::WorldSet ws(inst.graph(), {.worlds = worlds, .seed = opts.seed});
  mcSampleSeconds_ += secondsSince(t);

  t = nowNs();
  mc::ReliabilityEvaluator hard(inst, ws, mc::Objective::MaintainedCount);
  mcInitSeconds_ += secondsSince(t);
  notePlanes(inst, worlds);
  CountingEvaluator countedHard(hard, hard, mc_);
  const core::GreedyResult hardRun =
      countedGreedy(hard, hard, mc_, cands, opts);

  t = nowNs();
  mc::ReliabilityEvaluator soft(inst, ws, mc::Objective::TotalReliability);
  mcInitSeconds_ += secondsSince(t);
  const core::GreedyResult softRun =
      countedGreedy(soft, soft, mc_, cands, opts);

  // The surrogate contender is the paper's sandwich; its time is core's.
  const double solveBefore = solveSeconds_;
  const core::SandwichResult surrogate = sandwich(inst, cands, opts);
  solveSeconds_ = solveBefore;

  // Same scoring and tie-break as mc::sandwich: first best contender wins.
  const std::pair<const char*, const core::ShortcutList*> contenders[] = {
      {"mc_greedy", &hardRun.placement},
      {"mc_soft", &softRun.placement},
      {"surrogate", &surrogate.placement},
  };
  const std::pair<const char*, const core::ShortcutList*>* best = nullptr;
  double bestSigma = -1.0;
  for (const auto& c : contenders) {
    const double s = countedHard.evaluate(*c.second);
    if (s > bestSigma) {
      bestSigma = s;
      best = &c;
    }
  }
  countedHard.evaluate(*best->second);

  mc::McSolveResult r;
  r.placement = *best->second;
  r.winner = best->first;
  r.gainEvaluations = hardRun.gainEvaluations + softRun.gainEvaluations +
                      surrogate.gainEvaluations;
  r.rounds = hardRun.rounds;
  r.sigmaHat = static_cast<double>(hard.maintainedCount());
  r.wallSeconds = secondsSince(t0);
  solveSeconds_ += r.wallSeconds;
  return r;
}

void LayerProbe::sampleDijkstra(const msc::graph::Graph& g, std::uint64_t seed,
                                int samples) {
  const Tracer::Scope span(tracer_, "graph.dijkstra", "graph");
  msc::util::Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const auto source = static_cast<msc::graph::NodeId>(
        rng.below(static_cast<std::uint64_t>(g.nodeCount())));
    const std::int64_t t0 = nowNs();
    const msc::graph::ShortestPathTree tree = msc::graph::dijkstra(g, source);
    dijkstraRow_.push_back(secondsSince(t0));
    if (tree.dist.size() != static_cast<std::size_t>(g.nodeCount())) {
      throw std::runtime_error("dijkstra returned a short row");
    }
  }
  dijkstraArcs_ = std::max(dijkstraArcs_, 2 * g.edgeCount());
}

double LayerProbe::mcWallEquivalent() const {
  const EvalCounters::Totals m = mc_.totals();
  return mcSampleSeconds_ + mcInitSeconds_ + ns(m.addNs) + ns(m.valueNs) +
         ns(m.gainNs) / std::max(1, threads_);
}

void LayerProbe::fill(LayerMetrics& out) const {
  out["gen.busy_s"] = genSeconds_;
  out["gen.edges_per_s"] = perSecond(static_cast<double>(genEdges_), genSeconds_);

  const double row = dijkstraRow_.empty() ? 0.0 : median(dijkstraRow_);
  out["dijkstra.row_s"] = row;
  out["dijkstra.arcs_per_s"] = perSecond(static_cast<double>(dijkstraArcs_), row);

  out["oracle.prefetch_s"] = prefetchSeconds_;
  out["oracle.row_builds"] = static_cast<double>(oracle_.rowBuilds);
  out["oracle.row_hits"] = static_cast<double>(oracle_.rowHits);
  const double rowLookups =
      static_cast<double>(oracle_.rowBuilds + oracle_.rowHits);
  out["oracle.row_hit_ratio"] =
      rowLookups > 0 ? static_cast<double>(oracle_.rowHits) / rowLookups : 0.0;
  out["oracle.row_build_s"] = ns(oracle_.rowBuildNs);
  out["oracle.resident_mb"] =
      static_cast<double>(oracleResident_) / (1 << 20);
  out["oracle.apsp_s"] = median(apspSeconds_);

  const EvalCounters::Totals s = sigma_.totals();
  out["sigma.gain_evals"] = static_cast<double>(s.gainEvals);
  out["sigma.gain_busy_s"] = ns(s.gainNs);
  out["sigma.gain_ns"] =
      s.gainEvals ? static_cast<double>(s.gainNs) / s.gainEvals : 0.0;
  out["sigma.add_s"] = ns(s.addNs);
  out["sigma.value_calls"] = static_cast<double>(s.valueCalls);
  out["sigma.value_busy_s"] = ns(s.valueNs);

  const EvalCounters::Totals mu = mu_.totals();
  const EvalCounters::Totals nu = nu_.totals();
  out["mu.gain_evals"] = static_cast<double>(mu.gainEvals);
  out["mu.gain_busy_s"] = ns(mu.gainNs);
  out["mu.lazy_skip_ratio"] =
      muLazyBase_ ? 1.0 - static_cast<double>(muEvals_) / muLazyBase_ : 0.0;
  out["nu.gain_evals"] = static_cast<double>(nu.gainEvals);
  out["nu.gain_busy_s"] = ns(nu.gainNs);
  out["nu.lazy_skip_ratio"] =
      nuLazyBase_ ? 1.0 - static_cast<double>(nuEvals_) / nuLazyBase_ : 0.0;

  const EvalCounters::Totals m = mc_.totals();
  out["mc.sample_s"] = mcSampleSeconds_;
  out["mc.init_s"] = mcInitSeconds_;
  out["mc.gain_evals"] = static_cast<double>(m.gainEvals);
  out["mc.gain_busy_s"] = ns(m.gainNs);
  out["mc.gain_ns"] =
      m.gainEvals ? static_cast<double>(m.gainNs) / m.gainEvals : 0.0;
  out["mc.add_s"] = ns(m.addNs);
  out["mc.plane_mb"] = mcPlaneMb_;

  out["greedy.rounds"] = static_cast<double>(greedy_.rounds);
  out["greedy.scan_efficiency"] =
      greedy_.wall > 0.0
          ? ns(greedy_.busyNs) / (greedy_.wall * std::max(1, threads_))
          : 0.0;
  out["sandwich.wall_s"] = sandwichWall_.empty() ? 0.0 : median(sandwichWall_);
  out["aea.generations_per_s"] = perSecond(aeaGenerations_, aeaWall_);
  out["ea.generations_per_s"] = perSecond(eaGenerations_, eaWall_);
}

}  // namespace perfbench

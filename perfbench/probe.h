// Decorated solver calls for the traced phase, plus the per-layer
// accumulators they feed. Each solver function below makes the same library
// calls, in the same order, as the plain entry point it mirrors (named in
// its comment), with every evaluator wrapped in a CountingEvaluator — so
// its placement must equal the plain call's, which the workloads check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/aea.h"
#include "core/candidates.h"
#include "core/ea.h"
#include "core/greedy.h"
#include "core/instance.h"
#include "core/sandwich.h"
#include "graph/distance_oracle.h"
#include "graph/graph.h"
#include "layers.h"
#include "mc/solver.h"
#include "workload.h"

namespace perfbench {

class LayerProbe {
 public:
  explicit LayerProbe(int threads) : threads_(threads) {}

  /// Spans of later calls go to `tracer` (null: none).
  void setTracer(Tracer* tracer) { tracer_ = tracer; }

  /// core::greedyMaximize(SigmaEvaluator) as serve's greedy solve runs it.
  msc::core::GreedyResult sigmaGreedy(const msc::core::Instance& inst,
                                      const msc::core::CandidateSet& cands,
                                      const msc::core::SolveOptions& opts);
  /// core::sandwichApproximation(instance, candidates, options).
  msc::core::SandwichResult sandwich(const msc::core::Instance& inst,
                                     const msc::core::CandidateSet& cands,
                                     const msc::core::SolveOptions& opts);
  /// core::evolutionaryAlgorithm over SigmaEvaluator.
  msc::core::EaResult ea(const msc::core::Instance& inst,
                         const msc::core::CandidateSet& cands,
                         const msc::core::SolveOptions& opts, int iterations);
  /// core::adaptiveEvolutionaryAlgorithm over SigmaEvaluator.
  msc::core::AeaResult aea(const msc::core::Instance& inst,
                           const msc::core::CandidateSet& cands,
                           const msc::core::SolveOptions& opts, int iterations);
  /// mc::greedy.
  msc::mc::McSolveResult mcGreedy(const msc::core::Instance& inst,
                                  const msc::core::CandidateSet& cands,
                                  const msc::core::SolveOptions& opts,
                                  int worlds);
  /// mc::sandwich.
  msc::mc::McSolveResult mcSandwich(const msc::core::Instance& inst,
                                    const msc::core::CandidateSet& cands,
                                    const msc::core::SolveOptions& opts,
                                    int worlds);

  /// Median graph::dijkstra row time over `samples` seeded sources.
  void sampleDijkstra(const msc::graph::Graph& g, std::uint64_t seed,
                      int samples);
  /// Adds generation time and the generated edge count.
  void addGen(double seconds, std::size_t edges) {
    genSeconds_ += seconds;
    genEdges_ += edges;
  }
  /// Time spent building instances / prefetching oracle rows.
  void addPrefetch(double seconds) { prefetchSeconds_ += seconds; }
  /// Dense APSP build time of one cache miss.
  void addApsp(double seconds) { apspSeconds_.push_back(seconds); }
  /// Oracle telemetry delta of the traced phase (from stats()).
  void setOracleStats(const msc::graph::OracleStats& delta,
                      std::size_t residentBytes) {
    oracle_ = delta;
    oracleResident_ = residentBytes;
  }

  /// Wall time the solver calls above took, summed.
  double solveSeconds() const noexcept { return solveSeconds_; }
  /// Wall-equivalent MC time: sampling + evaluator set-up + add/value +
  /// gain busy time spread over the solver threads.
  double mcWallEquivalent() const;
  double prefetchSeconds() const noexcept { return prefetchSeconds_; }

  /// Writes every per-layer metric this probe owns.
  void fill(LayerMetrics& out) const;

 private:
  struct GreedyAgg {
    std::uint64_t rounds = 0;
    double wall = 0.0;
    std::uint64_t busyNs = 0;
  };
  msc::core::GreedyResult countedGreedy(msc::core::IncrementalEvaluator& eval,
                                        const msc::core::SetFunction& fn,
                                        EvalCounters& counters,
                                        const msc::core::CandidateSet& cands,
                                        const msc::core::SolveOptions& opts);
  void notePlanes(const msc::core::Instance& inst, int worlds);

  int threads_;
  Tracer* tracer_ = nullptr;
  EvalCounters sigma_, mu_, nu_, mc_;
  GreedyAgg greedy_;
  std::uint64_t muLazyBase_ = 0, nuLazyBase_ = 0;
  std::uint64_t muEvals_ = 0, nuEvals_ = 0;
  std::vector<double> sandwichWall_;
  double eaGenerations_ = 0.0, eaWall_ = 0.0;
  double aeaGenerations_ = 0.0, aeaWall_ = 0.0;
  double mcSampleSeconds_ = 0.0, mcInitSeconds_ = 0.0, mcPlaneMb_ = 0.0;
  double solveSeconds_ = 0.0;
  std::vector<double> dijkstraRow_;
  std::size_t dijkstraArcs_ = 0;
  double genSeconds_ = 0.0;
  std::size_t genEdges_ = 0;
  double prefetchSeconds_ = 0.0;
  std::vector<double> apspSeconds_;
  msc::graph::OracleStats oracle_;
  std::size_t oracleResident_ = 0;
};

/// Shortcuts between the instance's pair nodes — the candidate universe the
/// serve path uses on the pair-centric backend and the MC bench uses.
msc::core::CandidateSet pairNodeCandidates(const msc::core::Instance& inst);

/// OracleStats counters of `after` minus `before` (residency fields from
/// `after`).
msc::graph::OracleStats oracleDelta(const msc::graph::OracleStats& before,
                                    const msc::graph::OracleStats& after);

}  // namespace perfbench

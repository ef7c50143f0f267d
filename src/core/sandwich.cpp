#include "core/sandwich.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "core/bounds.h"
#include "core/sigma.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace msc::core {

SandwichResult sandwichApproximation(const Instance& instance,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options,
                                     const std::vector<double>& pairWeights) {
  SigmaEvaluator sigmaEval(instance, pairWeights);
  MuEvaluator muEval(instance, candidates, pairWeights);
  NuEvaluator nuEval(instance, pairWeights);
  return sandwichApproximation(sigmaEval, muEval, nuEval, sigmaEval, nuEval,
                               candidates, options);
}

SandwichResult sandwichApproximation(IncrementalEvaluator& sigmaEval,
                                     IncrementalEvaluator& muEval,
                                     IncrementalEvaluator& nuEval,
                                     const SetFunction& sigmaFn,
                                     const SetFunction& nuFn,
                                     const CandidateSet& candidates,
                                     const SolveOptions& options) {
  MSC_OBS_SPAN("sandwich.total");
  const auto startTime = std::chrono::steady_clock::now();
  SandwichResult result;

  GreedyResult mu, sg, nu;
  const int threads = util::resolveThreadCount(options.threads);
  // Per-bound pass progress: each completed pass is one of three sandwich
  // "rounds" (forced past the rate limit so the certified interval's
  // tightening always reaches the sink). Called on whichever thread ran
  // the pass — the reporter is shared and thread-safe.
  std::atomic<int> passesDone{0};
  const auto reportPass = [&passesDone](const char* pass,
                                        const GreedyResult& r) {
    msc::obs::ProgressReporter* const progress = msc::obs::currentProgress();
    if (progress == nullptr) return;
    msc::obs::ProgressSnapshot snap;
    snap.solver = "sandwich";
    snap.stage = pass;
    snap.round = passesDone.fetch_add(1, std::memory_order_relaxed) + 1;
    snap.totalRounds = 3;
    snap.value = r.value;
    snap.gainEvals = r.gainEvaluations;
    snap.extra("pass_rounds", static_cast<double>(r.rounds));
    progress->report(snap, /*force=*/true);
  };
  if (threads <= 1) {
    {
      MSC_OBS_SPAN("sandwich.pass.mu");
      const msc::obs::ScopedProgressStage stage("mu");
      mu = lazyGreedyMaximize(muEval, candidates, options);
      reportPass("mu", mu);
    }
    {
      MSC_OBS_SPAN("sandwich.pass.sigma");
      const msc::obs::ScopedProgressStage stage("sigma");
      sg = greedyMaximize(sigmaEval, candidates, options);
      reportPass("sigma", sg);
    }
    {
      MSC_OBS_SPAN("sandwich.pass.nu");
      const msc::obs::ScopedProgressStage stage("nu");
      nu = lazyGreedyMaximize(nuEval, candidates, options);
      reportPass("nu", nu);
    }
  } else {
    // The three passes touch disjoint evaluators, so they can overlap;
    // their inner gain scans serialize on (and share) the global pool.
    // Each pass is individually deterministic, so the concurrent schedule
    // returns exactly the sequential result.
    std::exception_ptr muError, sigmaError, nuError;
    // Directly-spawned threads don't inherit the serve request binding the
    // way pool workers do; capture it here and re-bind inside each pass so
    // their trace events, phase notes and CPU time stay attributed.
    msc::obs::RequestContext* const requestCtx = msc::obs::currentRequest();
    std::thread muThread([&, requestCtx] {
      try {
        msc::obs::trace::setCurrentThreadName("sandwich.mu");
        const msc::obs::ScopedRequestBind bind(requestCtx);
        const msc::obs::ScopedCpuAttribution cpu;
        MSC_OBS_SPAN("sandwich.pass.mu");
        const msc::obs::ScopedProgressStage stage("mu");
        mu = lazyGreedyMaximize(muEval, candidates, options);
        reportPass("mu", mu);
      } catch (...) {
        muError = std::current_exception();
      }
    });
    std::thread nuThread([&, requestCtx] {
      try {
        msc::obs::trace::setCurrentThreadName("sandwich.nu");
        const msc::obs::ScopedRequestBind bind(requestCtx);
        const msc::obs::ScopedCpuAttribution cpu;
        MSC_OBS_SPAN("sandwich.pass.nu");
        const msc::obs::ScopedProgressStage stage("nu");
        nu = lazyGreedyMaximize(nuEval, candidates, options);
        reportPass("nu", nu);
      } catch (...) {
        nuError = std::current_exception();
      }
    });
    try {
      MSC_OBS_SPAN("sandwich.pass.sigma");
      const msc::obs::ScopedProgressStage stage("sigma");
      sg = greedyMaximize(sigmaEval, candidates, options);
      reportPass("sigma", sg);
    } catch (...) {
      sigmaError = std::current_exception();
    }
    muThread.join();
    nuThread.join();
    if (muError) std::rethrow_exception(muError);
    if (sigmaError) std::rethrow_exception(sigmaError);
    if (nuError) std::rethrow_exception(nuError);
  }

  result.placementMu = mu.placement;
  result.placementSigma = sg.placement;
  result.placementNu = nu.placement;

  result.sigmaOfMu = sigmaFn.value(mu.placement);
  result.sigmaOfSigma = sg.value;  // sigma greedy's own value IS sigma
  result.sigmaOfNu = sigmaFn.value(nu.placement);

  result.nuOfFnu = nuFn.value(nu.placement);
  result.sigmaOfFnu = result.sigmaOfNu;

  // All passes share the request token, so any interruption reason is the
  // same token reason; each interrupted pass contributed its committed
  // prefix and the best-of-three scoring below still holds.
  result.interrupted = mu.interrupted != util::CancelReason::None
                           ? mu.interrupted
                       : sg.interrupted != util::CancelReason::None
                           ? sg.interrupted
                           : nu.interrupted;
  if (nu.interrupted == util::CancelReason::None) {
    // nu >= sigma pointwise and greedy on the monotone submodular nu is
    // (1-1/e)-approximate, so sigma(F*) <= nu(F*) <= nu(F_nu)/(1-1/e).
    result.certifiedUpperBound = result.nuOfFnu / (1.0 - std::exp(-1.0));
  }

  result.placement = mu.placement;
  result.sigma = result.sigmaOfMu;
  result.winner = "mu";
  if (result.sigmaOfSigma > result.sigma) {
    result.placement = sg.placement;
    result.sigma = result.sigmaOfSigma;
    result.winner = "sigma";
  }
  if (result.sigmaOfNu > result.sigma) {
    result.placement = nu.placement;
    result.sigma = result.sigmaOfNu;
    result.winner = "nu";
  }

  result.gainEvaluations =
      mu.gainEvaluations + sg.gainEvaluations + nu.gainEvaluations;
  result.wallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - startTime)
                           .count();

  // Terminal snapshot: the certified optimality interval [sigma, upper]
  // after scoring — this is the bound gap an interrupted reply carries.
  if (msc::obs::ProgressReporter* const progress =
          msc::obs::currentProgress()) {
    msc::obs::ProgressSnapshot snap;
    snap.solver = "sandwich";
    snap.stage = "result";
    snap.round = 3;
    snap.totalRounds = 3;
    snap.value = result.sigma;
    snap.gainEvals = result.gainEvaluations;
    if (result.certifiedUpperBound) {
      snap.extra("upper_bound", *result.certifiedUpperBound);
      snap.extra("bound_gap", *result.certifiedUpperBound - result.sigma);
    }
    if (const auto ratio = result.dataDependentRatio()) {
      snap.extra("data_dependent_ratio", *ratio);
    }
    progress->report(snap, /*force=*/true);
  }

  if (msc::obs::trace::enabled()) {
    const char* winner = result.winner == "mu"      ? "mu"
                         : result.winner == "sigma" ? "sigma"
                                                    : "nu";
    msc::obs::trace::instant("sandwich.winner",
                             {{"winner", winner},
                              {"sigma", result.sigma},
                              {"sigma_of_mu", result.sigmaOfMu},
                              {"sigma_of_sigma", result.sigmaOfSigma},
                              {"sigma_of_nu", result.sigmaOfNu}});
  }
  if (msc::obs::enabled()) {
    msc::obs::counter("sandwich.runs").add(1);
    msc::obs::counter("sandwich.gain_evals.mu").add(mu.gainEvaluations);
    msc::obs::counter("sandwich.gain_evals.sigma").add(sg.gainEvaluations);
    msc::obs::counter("sandwich.gain_evals.nu").add(nu.gainEvaluations);
    msc::obs::counter("sandwich.winner." + result.winner).add(1);
  }
  return result;
}

}  // namespace msc::core

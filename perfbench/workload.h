// The interface every workload implements; main.cpp's runner measures it.
//
// A run is: set up a few times (the median is setup_s), then a closed loop of
// ops for the time budget. Only the op's own library calls sit inside its
// OpTimer; answer checks run between ops with the clock stopped. The first
// `qualitySolves()` solves always complete (the loop runs past the budget
// if it must), so maintained_pairs is the same sum on every run of a seed.
//
// The traced run (--trace 1) measures twice in one process: phase A runs
// ops plainly for half the budget, then phase B re-runs exactly those ops
// on fresh state with spans and decorated evaluators, compares every
// answer with phase A's bit for bit, and reports the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Solver threads (never more than the cores the machine has).
  int threads = 1;
  /// Tiny inputs for the benchmark's own tests.
  bool tiny = false;
  /// Check an empty placement in place of each returned one, so the
  /// self-test can prove that the checks fail.
  bool corrupt = false;
};

/// Wall and CPU time of the library calls that make up one op.
class OpTimer {
 public:
  void start() {
    t0_ = nowNs();
    c0_ = processCpuSeconds();
  }
  void stop() {
    wall_ += secondsSince(t0_);
    cpu_ += processCpuSeconds() - c0_;
  }
  double wall() const noexcept { return wall_; }
  double cpu() const noexcept { return cpu_; }

 private:
  std::int64_t t0_ = 0;
  double c0_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

struct OpResult {
  /// Request kind ("solve", "eval", "query", ...).
  std::string kind;
  bool solve = false;
  /// Failed, refused or wrong-answer op.
  bool failed = false;
  /// Independently re-scored value of the returned placement (solves).
  double quality = 0.0;
  /// What the traced re-run must reproduce bit for bit.
  std::string answer;
};

/// Per-layer values by metric name; names missing from the list a run
/// prints are an error (see main.cpp).
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs from the seed (one setup repetition).
  virtual void setup(Tracer* tracer) = 0;
  /// Set-up repetitions per run; setup_s is their median.
  virtual int setupRepeats() const { return 5; }
  /// Fresh program state (engine, oracle row cache) before a phase.
  virtual void beginPhase(bool traced) = 0;
  /// Runs op `index`. `tracer` is null in untraced phases.
  virtual OpResult runOp(std::size_t index, Tracer* tracer, OpTimer& timer) = 0;
  /// Solves whose quality is summed into maintained_pairs.
  virtual std::size_t qualitySolves() const = 0;
  /// Per-layer metrics collected during the traced phase.
  virtual void layerMetrics(const Tracer& tracer, LayerMetrics& out) = 0;
  /// Extra lines for the human-readable part of the output.
  virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> makePaperWorkload(const RunConfig& cfg);
std::unique_ptr<Workload> makeCityWorkload(const RunConfig& cfg);
std::unique_ptr<Workload> makeReliabilityWorkload(const RunConfig& cfg);

// ---- helpers shared by the workloads ---------------------------------------

double median(std::vector<double> v);
/// Deterministic sub-seed: splitmix64 of (seed, stream).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench

// Shared bench regression harness: warmup + repeated timed runs per case,
// median/stddev aggregation, a metrics-registry counter snapshot per run,
// and a machine-readable BENCH_<name>.json export (schema "msc.bench.v1")
// under eval::outputDir() for tools/bench_diff.py to compare across
// commits.
//
// Usage in a bench binary:
//
//   msc::bench::Harness h("micro_core");
//   h.run("greedy_k4", [&] { ... });          // 1 warmup + 5 timed runs
//   std::cout << "bench json: " << h.writeJson() << '\n';
//
// Repeat counts come from HarnessConfig, overridable per process with
// MSC_BENCH_WARMUP / MSC_BENCH_REPEATS (the usual env-knob pattern, see
// util/env.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace msc::bench {

struct HarnessConfig {
  int warmup = 1;   ///< Untimed runs per case before measurement.
  int repeats = 5;  ///< Timed runs per case.
};

/// Defaults with MSC_BENCH_WARMUP / MSC_BENCH_REPEATS applied (each clamped
/// to >= 0 / >= 1 respectively).
HarnessConfig configFromEnv(HarnessConfig base = {});

/// One timed run: wall seconds plus the metrics-registry counter values the
/// run produced (the registry is reset before, snapshotted after — sorted
/// by name).
struct RunSample {
  double seconds = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Aggregated duration samples for one request phase within a case
/// (queue_wait / apsp / round_scan / ... — the serve usage-block phases).
struct PhaseResult {
  std::string name;
  std::size_t count = 0;  ///< Samples the aggregates were computed from.
  double median = 0.0;
  double p99 = 0.0;
};

/// Aggregated result of one named case.
struct CaseResult {
  std::string name;
  std::vector<RunSample> runs;   ///< One entry per timed run, in order.
  double median = 0.0;           ///< Of wall seconds across runs.
  double mean = 0.0;
  double stddev = 0.0;           ///< Unbiased sample stddev (0 for 1 run).
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;              ///< Interpolated percentile (== median).
  double p99 = 0.0;              ///< ~max at default repeat counts.
  std::vector<PhaseResult> phases;  ///< Optional; see addPhaseSamples().
};

/// Collects cases and writes BENCH_<name>.json. Not thread-safe; a bench
/// binary drives it from main().
class Harness {
 public:
  explicit Harness(std::string benchName,
                   HarnessConfig config = configFromEnv());

  /// Runs `fn` config.warmup times untimed, then config.repeats times
  /// timed, recording wall seconds and a counter snapshot per timed run.
  /// Metrics collection is force-enabled around the case (and the prior
  /// enabled state restored) so counter snapshots are populated even
  /// without MSC_METRICS=1. Returns a copy of the aggregated result (the
  /// retained one, kept for writeJson, moves when later cases run).
  CaseResult run(const std::string& caseName,
                 const std::function<void()>& fn);

  /// Attaches per-phase duration samples (seconds) to the most recently
  /// run case, aggregated to {count, median, p99} and rendered as a
  /// "phases" object in the JSON — the per-phase series
  /// tools/bench_diff.py gates separately from end-to-end latency. Serve
  /// benches collect these from response `usage.phases` blocks after the
  /// timed runs. Empty sample sets are ignored; throws std::logic_error
  /// when no case has run yet.
  void addPhaseSamples(const std::string& phaseName,
                       const std::vector<double>& seconds);

  const std::string& name() const noexcept { return name_; }
  const HarnessConfig& config() const noexcept { return config_; }
  const std::vector<CaseResult>& results() const noexcept { return results_; }

  /// Renders the "msc.bench.v1" JSON document:
  ///   {
  ///     "schema": "msc.bench.v1",
  ///     "name": "micro_core",
  ///     "warmup": 1, "repeats": 5,
  ///     "cases": {
  ///       "greedy_k4": {"seconds": [...], "median": ..., "mean": ...,
  ///                     "stddev": ..., "min": ..., "max": ...,
  ///                     "p50": ..., "p99": ...,
  ///                     "phases": {"apsp": {"count": ..., "median": ...,
  ///                                         "p99": ...}},  // optional
  ///                     "runs": [{"seconds": ..., "counters": {...}}]}
  ///     }
  ///   }
  /// Non-finite numbers render as null (standard JSON, matching the
  /// metrics exporter).
  std::string toJson() const;

  /// Writes toJson() to eval::outputDir()/BENCH_<name>.json and returns the
  /// path. Throws std::runtime_error when the file cannot be opened.
  std::string writeJson() const;

 private:
  std::string name_;
  HarnessConfig config_;
  std::vector<CaseResult> results_;
};

}  // namespace msc::bench

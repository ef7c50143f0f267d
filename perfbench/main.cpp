// Repository benchmark: runs one workload for a time budget and
// prints every metric by name with its unit, as one JSON object on the
// last line of stdout. See README.md for the workloads and the metrics.
//
//   msc_perfbench --workload paper|city|reliability --seed N --seconds S
//                 --trace 0|1 [--tiny] [--corrupt]
//                 [--trace-out FILE] [--source-id ID]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload.h"

#ifndef MSC_PERFBENCH_BUILD_TYPE
#define MSC_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MSC_PERFBENCH_COMPILER
#define MSC_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& endToEndMetrics() {
  static const std::vector<Metric> m = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"solve_p50_s", "s"},      {"solve_tail_s", "s"},
      {"cpu_s_per_op", "s"},     {"peak_rss_mb", "MB"},
      {"maintained_pairs", "pairs"}, {"ok_op_frac", "fraction"},
  };
  return m;
}

// Per-layer metrics, in the order README.md lists them. Every traced run
// prints all of them; a layer a workload never calls reads 0.
const std::vector<Metric>& perLayerMetrics() {
  static const std::vector<Metric> m = {
      {"gen.busy_s", "s"},
      {"gen.edges_per_s", "1/s"},
      {"dijkstra.row_s", "s"},
      {"dijkstra.arcs_per_s", "1/s"},
      {"oracle.prefetch_s", "s"},
      {"oracle.row_builds", "count"},
      {"oracle.row_hits", "count"},
      {"oracle.row_hit_ratio", "fraction"},
      {"oracle.row_build_s", "s"},
      {"oracle.resident_mb", "MB"},
      {"oracle.apsp_s", "s"},
      {"sigma.gain_evals", "count"},
      {"sigma.gain_busy_s", "s"},
      {"sigma.gain_ns", "ns"},
      {"sigma.add_s", "s"},
      {"sigma.value_calls", "count"},
      {"sigma.value_busy_s", "s"},
      {"mu.gain_evals", "count"},
      {"mu.gain_busy_s", "s"},
      {"mu.lazy_skip_ratio", "fraction"},
      {"nu.gain_evals", "count"},
      {"nu.gain_busy_s", "s"},
      {"nu.lazy_skip_ratio", "fraction"},
      {"mc.sample_s", "s"},
      {"mc.init_s", "s"},
      {"mc.gain_evals", "count"},
      {"mc.gain_busy_s", "s"},
      {"mc.gain_ns", "ns"},
      {"mc.add_s", "s"},
      {"mc.plane_mb", "MB"},
      {"greedy.rounds", "count"},
      {"greedy.scan_efficiency", "fraction"},
      {"sandwich.wall_s", "s"},
      {"aea.generations_per_s", "1/s"},
      {"ea.generations_per_s", "1/s"},
      {"serve.request_s.load_graph", "s"},
      {"serve.request_s.load_pairs", "s"},
      {"serve.request_s.solve", "s"},
      {"serve.request_s.eval", "s"},
      {"serve.request_s.stats", "s"},
      {"serve.request_s.metrics", "s"},
      {"serve.other_s", "s"},
      {"serve.cache_hit_ratio", "fraction"},
      {"self_s.bench", "s"},
      {"self_s.gen", "s"},
      {"self_s.graph", "s"},
      {"self_s.oracle", "s"},
      {"self_s.core", "s"},
      {"self_s.mc", "s"},
      {"self_s.serve", "s"},
      {"share.gen_oracle_of_setup", "fraction"},
      {"share.dijkstra_oracle_of_op", "fraction"},
      {"share.mc_of_solve", "fraction"},
      {"trace.spans", "count"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.traced_ops_per_s", "1/s"},
      {"trace.overhead_ops_per_s", "1/s"},
  };
  return m;
}

struct Args {
  RunConfig cfg;
  std::string traceOut;
  std::string sourceId = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: msc_perfbench --workload paper|city|reliability "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt] [--trace-out FILE] [--source-id ID]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  // Four solver threads, never more than the machine has.
  a.cfg.threads =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.cfg.workload = value();
        haveWorkload = true;
      } else if (flag == "--seed") {
        a.cfg.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.cfg.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.cfg.trace = value() != "0";
      } else if (flag == "--tiny") {
        a.cfg.tiny = true;
      } else if (flag == "--corrupt") {
        a.cfg.corrupt = true;
      } else if (flag == "--trace-out") {
        a.traceOut = value();
      } else if (flag == "--source-id") {
        a.sourceId = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!(a.cfg.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Latency at the highest percentile that still has >= 10 samples above
/// it: the 11th-largest value of `v` (needs at least 11 samples).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tailLatency(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

struct Phase {
  std::size_t ops = 0;
  std::size_t solves = 0;
  std::size_t failed = 0;
  double opWall = 0.0;
  double opCpu = 0.0;
  double elapsed = 0.0;
  double quality = 0.0;
  std::vector<double> solveLatency;
  std::vector<std::string> answers;
  std::map<std::string, std::vector<double>> latencyByKind;
};

/// Closed loop over ops until the budget is spent and at least
/// `minSolves` solves completed (or, with a fixed count, exactly `fixedOps`
/// ops).
Phase runPhase(Workload& wl, double budget, std::size_t minSolves,
               std::size_t fixedOps, Tracer* tracer) {
  Phase p;
  const std::int64_t start = nowNs();
  const std::size_t quality = wl.qualitySolves();
  for (std::size_t i = 0;; ++i) {
    if (fixedOps > 0) {
      if (i >= fixedOps) break;
    } else if (p.opWall >= budget && p.solves >= minSolves) {
      break;
    }
    if (tracer) tracer->beginOp(i + 1);
    OpTimer timer;
    OpResult r;
    {
      const Tracer::Scope span(tracer, "op", "bench");
      r = wl.runOp(i, tracer, timer);
    }
    ++p.ops;
    p.opWall += timer.wall();
    p.opCpu += timer.cpu();
    if (r.failed) ++p.failed;
    if (r.solve) {
      if (p.solves < quality) p.quality += r.quality;
      ++p.solves;
      p.solveLatency.push_back(timer.wall());
    }
    p.latencyByKind[r.kind].push_back(timer.wall());
    p.answers.push_back(std::move(r.answer));
  }
  p.elapsed = secondsSince(start);
  return p;
}

int run(const Args& args) {
  const RunConfig& cfg = args.cfg;
  std::unique_ptr<Workload> wl;
  if (cfg.workload == "paper") {
    wl = makePaperWorkload(cfg);
  } else if (cfg.workload == "city") {
    wl = makeCityWorkload(cfg);
  } else if (cfg.workload == "reliability") {
    wl = makeReliabilityWorkload(cfg);
  } else {
    usage("unknown workload \"" + cfg.workload + "\"");
  }

  const std::string buildType = MSC_PERFBENCH_BUILD_TYPE;
  const bool optimised = buildType == "Release" || buildType == "RelWithDebInfo";
  std::cout << "# run: workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << " tiny=" << cfg.tiny << " corrupt=" << cfg.corrupt << "\n"
            << "# env: nproc=" << std::thread::hardware_concurrency()
            << " solver_threads=" << cfg.threads << " cpu=\"" << cpuModel()
            << "\" compiler=\"" << MSC_PERFBENCH_COMPILER
            << "\" build_type=" << buildType << " source=" << args.sourceId
            << "\n";
  if (!optimised) {
    std::cout << "# WARNING: non-optimised build (" << buildType
              << "); timings are not comparable to Release/RelWithDebInfo\n";
  }

  Tracer tracer;
  Tracer* t = cfg.trace ? &tracer : nullptr;
  std::vector<double> setupWall;
  for (int r = 0; r < wl->setupRepeats(); ++r) {
    if (t) t->beginOp(0);
    const std::int64_t t0 = nowNs();
    {
      const Tracer::Scope span(t, "setup", "bench");
      wl->setup(t);
    }
    setupWall.push_back(secondsSince(t0));
  }
  const std::size_t minSolves = std::max<std::size_t>(wl->qualitySolves(), 11);

  std::map<std::string, double> values;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (!cfg.trace) {
    wl->beginPhase(false);
    const Phase timed = runPhase(*wl, cfg.seconds, minSolves, 0, nullptr);
    attempted = timed.ops;
    failed = timed.failed;
    const Tail tail = tailLatency(timed.solveLatency);
    std::cout << "# solve_tail_s is p" << number(tail.percentile) << " of "
              << tail.samples << " solves; " << timed.ops << " ops in "
              << number(timed.opWall) << " s of op time ("
              << number(timed.elapsed) << " s elapsed)\n";
    for (const auto& [kind, lat] : timed.latencyByKind) {
      std::cout << "# op " << kind << ": n=" << lat.size()
                << " median_s=" << number(median(lat))
                << " max_s=" << number(*std::max_element(lat.begin(), lat.end()))
                << "\n";
    }
    const double ops = static_cast<double>(std::max<std::size_t>(1, timed.ops));
    values = {
        {"setup_s", median(setupWall)},
        {"ops_per_s", timed.opWall > 0 ? timed.ops / timed.opWall : 0.0},
        {"solve_p50_s", median(timed.solveLatency)},
        {"solve_tail_s", tail.value},
        {"cpu_s_per_op", timed.opCpu / ops},
        {"peak_rss_mb", peakRssMb()},
        {"maintained_pairs", timed.quality},
        {"ok_op_frac", 1.0 - static_cast<double>(timed.failed) / ops},
    };
    if (tail.samples < 11) {
      std::cout << "# FAIL: fewer than 11 solves, no tail percentile\n";
      ++failed;
    }
  } else {
    // Phase A: plain ops for half the budget. Phase B: the same ops again
    // on fresh state, traced, answer by answer.
    wl->beginPhase(false);
    const Phase a = runPhase(*wl, cfg.seconds / 2, minSolves, 0, nullptr);
    wl->beginPhase(true);
    const Phase b = runPhase(*wl, 0.0, 0, a.ops, &tracer);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < a.ops; ++i) {
      if (a.answers[i] != b.answers[i]) {
        if (mismatched == 0) {
          std::cout << "# FAIL: traced op " << i << " answered \""
                    << b.answers[i] << "\", untraced \"" << a.answers[i]
                    << "\"\n";
        }
        ++mismatched;
      }
    }
    attempted = a.ops + b.ops;
    failed = a.failed + b.failed + mismatched;
    std::cout << "# traced re-run of " << a.ops << " ops: " << mismatched
              << " answers differ from the untraced run\n";

    for (const Metric& m : perLayerMetrics()) values[m.name] = 0.0;
    wl->layerMetrics(tracer, values);
    for (const auto& [name, secs] : tracer.selfSecondsByLayer()) {
      values["self_s." + name] = secs;
    }
    const double untraced = a.ops / a.elapsed;
    const double traced = b.ops / b.elapsed;
    values["trace.spans"] = static_cast<double>(tracer.spanCount());
    values["trace.untraced_ops_per_s"] = untraced;
    values["trace.traced_ops_per_s"] = traced;
    values["trace.overhead_ops_per_s"] = untraced - traced;
    if (values.size() != perLayerMetrics().size()) {
      std::cout << "# FAIL: workload reported a metric outside the list\n";
      ++failed;
    }
    if (!args.traceOut.empty() && !tracer.writeJsonl(args.traceOut)) {
      std::cout << "# FAIL: cannot write spans to " << args.traceOut << "\n";
      ++failed;
    }
  }
  for (const std::string& note : wl->notes()) std::cout << "# " << note << "\n";

  const auto& list = cfg.trace ? perLayerMetrics() : endToEndMetrics();
  std::ostringstream js;
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < list.size(); ++i) {
    js << (i ? ", " : "") << "\"" << list[i].name
       << "\": {\"value\": " << number(values.at(list[i].name))
       << ", \"unit\": \"" << list[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

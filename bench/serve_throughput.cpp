// Serve-path throughput: requests/second through serve::Engine, cold vs
// warm instance cache. "Cold" clears the cache before every request batch,
// so each solve pays graph hashing + the n-source APSP build; "warm"
// pre-loads the instance once so every solve reuses the memoized matrix
// (apsp_cache:"hit"). The gap between the two medians is the cache's whole
// value proposition, and the per-run counter snapshots in the BENCH json
// (serve.cache.apsp_hits / apsp_misses) prove which path each case took —
// tools/bench_diff.py keeps it from regressing.
#include <cstddef>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "graph/graph_io.h"
#include "harness.h"
#include "serve/json.h"
#include "serve/server.h"
#include "util/env.h"

namespace {

std::string graphText(const msc::core::Instance& inst) {
  std::ostringstream os;
  msc::graph::writeEdgeList(os, inst.graph());
  return os.str();
}

std::string pairsText(const msc::core::Instance& inst) {
  std::ostringstream os;
  for (const auto& p : inst.pairs()) os << p.u << ' ' << p.w << '\n';
  return os.str();
}

std::string escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void expectOk(const std::string& response) {
  if (response.find("\"status\":\"ok\"") == std::string::npos) {
    throw std::runtime_error("serve request failed: " + response);
  }
}

/// Pulls usage.phases durations out of stored response lines (parsed after
/// the timed runs — JSON parsing must not pollute the measurement). The
/// oracle row-build attribution (usage.oracle.row_build_seconds) rides
/// along as pseudo-phase "oracle_row_build" so bench_diff.py's per-phase
/// gate covers the lazy-backend Dijkstra cost too.
std::map<std::string, std::vector<double>> collectPhases(
    const std::vector<std::string>& responses) {
  std::map<std::string, std::vector<double>> phases;
  for (const std::string& line : responses) {
    const msc::serve::json::Value doc = msc::serve::json::parse(line);
    const msc::serve::json::Value* usage = doc.find("usage");
    if (usage == nullptr) continue;
    const msc::serve::json::Value* phaseObj = usage->find("phases");
    if (phaseObj == nullptr || !phaseObj->isObject()) continue;
    for (const auto& [name, value] : phaseObj->asObject()) {
      if (value.isNumber()) phases[name].push_back(value.asNumber());
    }
    const msc::serve::json::Value* oracle = usage->find("oracle");
    if (oracle == nullptr) continue;
    const msc::serve::json::Value* rowBuild =
        oracle->find("row_build_seconds");
    if (rowBuild != nullptr && rowBuild->isNumber() &&
        rowBuild->asNumber() > 0.0) {
      phases["oracle_row_build"].push_back(rowBuild->asNumber());
    }
  }
  return phases;
}

}  // namespace

int main() {
  using namespace msc;

  eval::RgSetup setup;
  setup.nodes = static_cast<int>(util::envInt("MSC_SERVE_BENCH_NODES", 80));
  setup.pairs = 24;
  const auto spatial = eval::makeRgInstance(setup);
  const std::string loadGraphReq =
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"text\":\"" +
      escape(graphText(spatial.instance)) + "\"}";
  const std::string loadPairsReq =
      "{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"" +
      escape(pairsText(spatial.instance)) + "\"}";
  const std::string solveReq =
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":4,\"threads\":1,\"seed\":1}";
  const int requestsPerRun =
      static_cast<int>(util::envInt("MSC_SERVE_BENCH_REQUESTS", 8));

  serve::Engine engine;
  expectOk(engine.handleLine(loadGraphReq));
  expectOk(engine.handleLine(loadPairsReq));

  bench::Harness h("serve_throughput");

  // Solve responses are kept (push_back only, parsed after the runs) so
  // the usage.phases attribution can be aggregated into the BENCH json —
  // the per-phase p99 series bench_diff.py gates (apsp separately from
  // end-to-end).
  std::vector<std::string> solveResponses;
  solveResponses.reserve(256);

  // Every request batch re-loads the instance from scratch: each solve is
  // an APSP compute (serve.cache.apsp_misses == requestsPerRun per run).
  const auto cold = h.run("solve_cold_cache", [&] {
    for (int i = 0; i < requestsPerRun; ++i) {
      engine.cache().clear();
      expectOk(engine.handleLine(loadGraphReq));
      expectOk(engine.handleLine(loadPairsReq));
      solveResponses.push_back(engine.handleLine(solveReq));
      expectOk(solveResponses.back());
    }
  });
  for (const auto& [phase, samples] : collectPhases(solveResponses)) {
    h.addPhaseSamples(phase, samples);
  }
  solveResponses.clear();

  // Instance stays loaded: every solve reuses the memoized matrix
  // (serve.cache.apsp_hits == requestsPerRun per run).
  expectOk(engine.handleLine(loadGraphReq));
  expectOk(engine.handleLine(loadPairsReq));
  expectOk(engine.handleLine(solveReq));  // memoize APSP before timing
  const auto warm = h.run("solve_warm_cache", [&] {
    for (int i = 0; i < requestsPerRun; ++i) {
      solveResponses.push_back(engine.handleLine(solveReq));
      expectOk(solveResponses.back());
    }
  });
  for (const auto& [phase, samples] : collectPhases(solveResponses)) {
    h.addPhaseSamples(phase, samples);
  }
  solveResponses.clear();

  // Warm solve with progress streaming enabled (docs/ALGORITHMS.md §18):
  // every round boundary renders and delivers an event line. The delta
  // against solve_warm_cache is the whole cost of live introspection, and
  // bench_diff.py gates it like any other case.
  const auto progressReq = serve::parseRequest(
      "{\"cmd\":\"solve\",\"graph\":\"g\",\"pairs\":\"p\",\"p_t\":0.14,"
      "\"algo\":\"greedy\",\"k\":4,\"threads\":1,\"seed\":1,"
      "\"progress\":{\"every_ms\":0}}");
  std::size_t progressEvents = 0;
  const std::function<void(const std::string&)> countEvents =
      [&progressEvents](const std::string&) { ++progressEvents; };
  const auto withProgress = h.run("solve_with_progress", [&] {
    for (int i = 0; i < requestsPerRun; ++i) {
      solveResponses.push_back(engine.handle(progressReq, 0.0, &countEvents));
      expectOk(solveResponses.back());
    }
  });
  if (progressEvents == 0) {
    std::cerr << "progress case emitted no events\n";
    return 1;
  }
  for (const auto& [phase, samples] : collectPhases(solveResponses)) {
    h.addPhaseSamples(phase, samples);
  }
  solveResponses.clear();

  // Cold pair-centric case: every solve pays the landmark + pair-node row
  // Dijkstras, so usage.oracle.row_build_seconds is nonzero — this feeds
  // the "oracle_row_build" phase series the regression gate watches.
  const std::string loadGraphPcReq =
      "{\"cmd\":\"load_graph\",\"as\":\"g\",\"distance_mode\":"
      "\"pair_centric\",\"text\":\"" +
      escape(graphText(spatial.instance)) + "\"}";
  const auto pairCentric = h.run("solve_pair_centric_cold", [&] {
    for (int i = 0; i < requestsPerRun; ++i) {
      engine.cache().clear();
      expectOk(engine.handleLine(loadGraphPcReq));
      expectOk(engine.handleLine(loadPairsReq));
      solveResponses.push_back(engine.handleLine(solveReq));
      expectOk(solveResponses.back());
    }
  });
  for (const auto& [phase, samples] : collectPhases(solveResponses)) {
    h.addPhaseSamples(phase, samples);
  }

  const auto reqPerSec = [requestsPerRun](double seconds) {
    return seconds > 0.0 ? requestsPerRun / seconds : 0.0;
  };
  std::cout << "serve throughput (RG n=" << setup.nodes << ", greedy k=4, "
            << requestsPerRun << " req/run)\n"
            << "  cold cache: median " << cold.median << " s  ("
            << reqPerSec(cold.median) << " req/s)\n"
            << "  warm cache: median " << warm.median << " s  ("
            << reqPerSec(warm.median) << " req/s)\n"
            << "  warm + progress: median " << withProgress.median << " s  ("
            << reqPerSec(withProgress.median) << " req/s, "
            << progressEvents << " events)\n"
            << "  pair-centric cold: median " << pairCentric.median << " s  ("
            << reqPerSec(pairCentric.median) << " req/s)\n";

  const auto stats = engine.cache().stats();
  std::cout << "  cache: apsp_computes=" << stats.apspComputes
            << " apsp_hits=" << stats.apspHits
            << " evictions=" << stats.evictions << '\n';
  if (stats.apspHits == 0) {
    std::cerr << "warm case never hit the APSP cache\n";
    return 1;
  }
  if (warm.median >= cold.median) {
    std::cerr << "warning: warm median not below cold median (noisy host?)\n";
  }
  std::cout << "bench json: " << h.writeJson() << '\n';
  return 0;
}

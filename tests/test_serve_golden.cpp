// Golden check of the serve telemetry surface: a fixed Engine session
// (both distance backends; cold, warm, progress-streaming and
// deadline-cancelled solves; eval) must produce the Prometheus page and
// `stats` reply committed under tests/golden/. The comparison is structural:
//   - Prometheus families may appear in any order; within a family every
//     TYPE, sample name, label set and value must match;
//   - timing-valued samples are masked: histogram families, `_sum`
//     samples, `*rounds_per_second`, and in the stats reply every
//     `*seconds` / `*per_second` key and the usage phases;
//   - `obs_counters` may carry extra keys only for the counters that live
//     in the global registry as always-on series (progress, trace drops).
// On a mismatch the actual outputs are written next to the test's temp
// dir so a deliberate change can be reviewed and committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "helpers.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/server.h"

#ifndef MSC_GOLDEN_DIR
#error "MSC_GOLDEN_DIR must name tests/golden"
#endif

namespace {

namespace json = msc::serve::json;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string writeActual(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string jsonString(const std::string& raw) {
  return json::dump(json::Value(raw));
}

std::string graphText(const msc::graph::Graph& g) {
  std::ostringstream os;
  msc::graph::writeEdgeList(os, g);
  return os.str();
}

// ------------------------------------------------------------ prometheus ---

struct PromFamily {
  std::string type;
  int typeLines = 0;
  std::multiset<std::string> samples;  // "name{sorted labels} value"
};

bool maskedSample(const PromFamily& fam, const std::string& name) {
  return fam.type == "histogram" || name.ends_with("_sum") ||
         name.find("rounds_per_second") != std::string::npos;
}

// Parses a Prometheus text page into families keyed by their TYPE name.
// Labels are sorted so label order inside `{}` does not matter; values are
// normalized through double so "7" and "7.0" compare equal. Histogram
// bucket boundaries are timing-dependent, so only the closing +Inf bucket
// is kept (value masked).
std::map<std::string, PromFamily> parseProm(const std::string& text) {
  std::map<std::string, PromFamily> families;
  PromFamily* current = nullptr;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ss(line.substr(7));
      std::string name;
      std::string type;
      ss >> name >> type;
      current = &families[name];
      current->type = type;
      ++current->typeLines;
      continue;
    }
    const auto brace = line.find('{');
    const auto space = line.rfind(' ');
    const std::string name = line.substr(0, std::min(brace, space));
    std::vector<std::string> labels;
    if (brace != std::string::npos && brace < space) {
      std::string body = line.substr(brace + 1, line.rfind('}') - brace - 1);
      std::istringstream ls(body);
      std::string label;
      while (std::getline(ls, label, ',')) labels.push_back(label);
      std::sort(labels.begin(), labels.end());
    }
    PromFamily& fam = current != nullptr ? *current : families["<untyped>"];
    if (fam.type == "histogram" && name.ends_with("_bucket") &&
        (labels.size() != 1 || labels[0] != "le=\"+Inf\"")) {
      continue;
    }
    std::string key = name + "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      key += (i ? "," : "") + labels[i];
    }
    key += "} ";
    if (maskedSample(fam, name)) {
      key += "*";
    } else {
      std::ostringstream v;
      v.precision(17);
      v << std::stod(line.substr(space + 1));
      key += v.str();
    }
    fam.samples.insert(key);
  }
  return families;
}

std::string describe(const PromFamily& fam) {
  std::string out = "TYPE " + fam.type + " x" + std::to_string(fam.typeLines);
  for (const std::string& s : fam.samples) out += "\n    " + s;
  return out;
}

// ----------------------------------------------------------------- stats ---

// Keys present in `obs_counters` only once the always-on progress and
// trace-drop counters live in the global registry.
bool movedCounterKey(const std::string& key) {
  return key == "progress.snapshots" || key == "progress.events" ||
         key.rfind("trace.dropped_events", 0) == 0;
}

bool timingKey(const std::string& key) {
  return key.ends_with("seconds") ||
         key.find("per_second") != std::string::npos || key == "phases";
}

void maskTiming(json::Value& v) {
  if (!v.isObject()) return;
  for (auto& [key, child] : v.asObject()) {
    if (timingKey(key)) {
      child = json::Value("<masked>");
    } else {
      maskTiming(child);
    }
  }
}

// --------------------------------------------------------------- session ---

struct Session {
  std::string prom;
  std::string stats;
};

Session runGoldenSession() {
  msc::serve::EngineConfig config;
  config.cacheBytes = std::size_t{256} << 20;
  config.defaultThreads = 1;
  config.oracleRowBytes = 0;
  msc::serve::Engine engine(config);

  const std::string dense = graphText(msc::test::randomGraph(40, 0.1, 7));
  const std::string pairCentric =
      graphText(msc::test::randomGraph(48, 0.08, 11));
  const std::string solveParams =
      ",\"pairs\":\"p\",\"p_t\":0.14,\"algo\":\"greedy\",\"k\":2,"
      "\"threads\":1,\"seed\":1";
  const std::vector<std::string> script = {
      "{\"id\":1,\"cmd\":\"load_graph\",\"as\":\"gd\","
      "\"distance_mode\":\"dense\",\"text\":" + jsonString(dense) + "}",
      "{\"id\":2,\"cmd\":\"load_graph\",\"as\":\"gp\","
      "\"distance_mode\":\"pair_centric\",\"text\":" +
          jsonString(pairCentric) + "}",
      "{\"id\":3,\"cmd\":\"load_pairs\",\"as\":\"p\","
      "\"text\":\"0 39\\n3 31\\n7 22\\n\"}",
      "{\"id\":4,\"cmd\":\"solve\",\"graph\":\"gd\"" + solveParams + "}",
      "{\"id\":5,\"cmd\":\"solve\",\"graph\":\"gd\"" + solveParams +
          ",\"progress\":{\"every_ms\":0}}",
      "{\"id\":6,\"cmd\":\"solve\",\"graph\":\"gp\"" + solveParams + "}",
      "{\"id\":7,\"cmd\":\"solve\",\"graph\":\"gp\"" + solveParams + "}",
      "{\"id\":8,\"cmd\":\"solve\",\"graph\":\"gp\"" + solveParams +
          ",\"deadline_seconds\":1e-9}",
      "{\"id\":9,\"cmd\":\"eval\",\"graph\":\"gd\",\"pairs\":\"p\","
      "\"p_t\":0.14,\"placement\":\"0-39\"}",
  };
  const std::vector<std::string> statuses = {
      "ok", "ok", "ok", "ok", "ok", "ok", "ok", "deadline_exceeded", "ok"};
  for (std::size_t i = 0; i < script.size(); ++i) {
    const json::Value reply = json::parse(engine.handleLine(script[i]));
    EXPECT_EQ(reply.find("status")->asString(), statuses[i]) << script[i];
  }
  Session s;
  s.stats = engine.handleLine("{\"id\":10,\"cmd\":\"stats\"}");
  const json::Value metrics =
      json::parse(engine.handleLine("{\"id\":11,\"cmd\":\"metrics\"}"));
  s.prom = metrics.find("prometheus")->asString();
  return s;
}

class ServeGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    wasEnabled_ = msc::obs::enabled();
    wasTracing_ = msc::obs::trace::enabled();
    slowMs_ = msc::obs::slowRequestThresholdMs();
    // The golden session is the always-on surface: gated counters and
    // tracing off whatever the environment says, no slow-request dumps.
    msc::obs::setEnabled(false);
    msc::obs::trace::setEnabled(false);
    msc::obs::setSlowRequestThresholdMs(0.0);
    msc::obs::resetAll();
  }
  void TearDown() override {
    msc::obs::resetAll();
    msc::obs::setSlowRequestThresholdMs(slowMs_);
    msc::obs::trace::setEnabled(wasTracing_);
    msc::obs::setEnabled(wasEnabled_);
  }

 private:
  bool wasEnabled_ = false;
  bool wasTracing_ = false;
  double slowMs_ = 0.0;
};

TEST_F(ServeGolden, PrometheusPageAndStatsReplyMatchCommittedFiles) {
  const Session actual = runGoldenSession();
  const std::string dir = MSC_GOLDEN_DIR;
  const std::string promGolden = readFile(dir + "/serve_session.prom");
  const std::string statsGolden = readFile(dir + "/serve_session_stats.json");
  ASSERT_FALSE(promGolden.empty() || statsGolden.empty())
      << "golden files missing under " << dir << "; actual outputs: "
      << writeActual("serve_session.prom", actual.prom) << ", "
      << writeActual("serve_session_stats.json", actual.stats + "\n");

  // Prometheus page.
  const auto want = parseProm(promGolden);
  const auto got = parseProm(actual.prom);
  bool promOk = true;
  for (const auto& [name, fam] : want) {
    const auto it = got.find(name);
    if (it == got.end()) {
      ADD_FAILURE() << "family " << name << " missing";
      promOk = false;
    } else if (it->second.type != fam.type ||
               it->second.typeLines != fam.typeLines ||
               it->second.samples != fam.samples) {
      ADD_FAILURE() << "family " << name << " differs\n  want "
                    << describe(fam) << "\n  got  " << describe(it->second);
      promOk = false;
    }
  }
  for (const auto& [name, fam] : got) {
    if (want.count(name) == 0) {
      ADD_FAILURE() << "unexpected family " << name << ": " << describe(fam);
      promOk = false;
    }
  }
  if (!promOk) {
    ADD_FAILURE() << "actual page: "
                  << writeActual("serve_session.prom", actual.prom);
  }

  // Stats reply.
  json::Value wantStats = json::parse(statsGolden);
  json::Value gotStats = json::parse(actual.stats);
  json::Object& wantCounters = wantStats.asObject().at("obs_counters").asObject();
  json::Object& gotCounters = gotStats.asObject().at("obs_counters").asObject();
  for (const auto& [key, value] : gotCounters) {
    const auto it = wantCounters.find(key);
    if (it == wantCounters.end()) {
      EXPECT_TRUE(movedCounterKey(key)) << "unexpected obs_counters." << key;
    } else {
      EXPECT_EQ(json::dump(value), json::dump(it->second))
          << "obs_counters." << key;
    }
  }
  for (const auto& [key, value] : wantCounters) {
    EXPECT_EQ(gotCounters.count(key), 1u) << "obs_counters." << key
                                          << " missing";
  }
  wantCounters.clear();
  gotCounters.clear();
  maskTiming(wantStats);
  maskTiming(gotStats);
  EXPECT_EQ(json::dump(gotStats), json::dump(wantStats))
      << "actual stats reply: "
      << writeActual("serve_session_stats.json", actual.stats + "\n");
}

}  // namespace

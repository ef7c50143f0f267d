#include "obs/prom_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/server.h"

namespace {

using msc::obs::Registry;

class PromExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    msc::obs::resetAll();
    msc::obs::setEnabled(true);
  }
  void TearDown() override {
    msc::obs::setEnabled(false);
    msc::obs::resetAll();
  }
};

// Splits exposition output into non-comment sample lines.
std::vector<std::string> sampleLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

TEST(PromSanitizeTest, MapsInvalidCharactersToUnderscore) {
  EXPECT_EQ(msc::obs::promSanitizeName("serve.cache.apsp_hits"),
            "serve_cache_apsp_hits");
  EXPECT_EQ(msc::obs::promSanitizeName("a-b c\"d"), "a_b_c_d");
  EXPECT_EQ(msc::obs::promSanitizeName("keeps:colons_and_09"),
            "keeps:colons_and_09");
}

TEST(PromSanitizeTest, GuardsLeadingDigitAndEmpty) {
  EXPECT_EQ(msc::obs::promSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(msc::obs::promSanitizeName(""), "_");
}

TEST_F(PromExportTest, CountersBecomeTotalSeries) {
  msc::obs::counter("dijkstra.runs").add(7);
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_NE(text.find("# TYPE msc_dijkstra_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("msc_dijkstra_runs_total 7"), std::string::npos);
}

TEST_F(PromExportTest, StatsBecomeSummariesWithGauges) {
  auto& s = msc::obs::stat("span.apsp");
  s.record(1.0);
  s.record(3.0);
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_NE(text.find("# TYPE msc_span_apsp summary"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_count 2"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_sum 4"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_min 1"), std::string::npos);
  EXPECT_NE(text.find("msc_span_apsp_max 3"), std::string::npos);
}

TEST_F(PromExportTest, EmptyStatsOmitMinMaxInsteadOfNaN) {
  // A never-recorded stat has no min/max; the exposition omits those gauges
  // entirely rather than print NaN — some collectors reject a whole scrape
  // over a single NaN sample, and a freshly started server must never
  // serve such a page. Recorded non-finite values still use the Prometheus
  // literals (the text format, unlike JSON, has them).
  msc::obs::stat("span.empty");
  msc::obs::stat("span.inf").record(std::numeric_limits<double>::infinity());
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_EQ(text.find("msc_span_empty_min"), std::string::npos);
  EXPECT_EQ(text.find("msc_span_empty_max"), std::string::npos);
  EXPECT_NE(text.find("msc_span_empty_count 0"), std::string::npos);
  EXPECT_NE(text.find("msc_span_empty_sum 0"), std::string::npos);
  EXPECT_NE(text.find("msc_span_inf_max +Inf"), std::string::npos);
  EXPECT_EQ(text.find("NaN"), std::string::npos);
  // And never a bare lowercase literal JSON would reject anyway.
  EXPECT_EQ(text.find(" nan"), std::string::npos);
  EXPECT_EQ(text.find(" inf"), std::string::npos);
}

TEST_F(PromExportTest, HistogramBucketsAreCumulativeAndClosed) {
  auto& h = msc::obs::histogram("serve.request_seconds");
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);  // 0.1ms .. 100ms
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_NE(text.find("# TYPE msc_serve_request_seconds histogram"),
            std::string::npos);

  // Parse the _bucket series back: le values must be increasing, counts
  // non-decreasing, and the +Inf bucket must equal _count.
  std::uint64_t lastCount = 0;
  double lastLe = -1.0;
  std::uint64_t infCount = 0;
  int bucketLines = 0;
  bool sawInf = false;
  for (const std::string& line : sampleLines(text)) {
    const std::string prefix = "msc_serve_request_seconds_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    ++bucketLines;
    const auto closeQuote = line.find('"', prefix.size());
    ASSERT_NE(closeQuote, std::string::npos);
    const std::string leStr = line.substr(prefix.size(),
                                          closeQuote - prefix.size());
    const std::uint64_t count =
        std::stoull(line.substr(line.find("} ") + 2));
    EXPECT_GE(count, lastCount) << "bucket counts must be cumulative";
    lastCount = count;
    if (leStr == "+Inf") {
      sawInf = true;
      infCount = count;
    } else {
      const double le = std::stod(leStr);
      EXPECT_GT(le, lastLe) << "le boundaries must increase";
      lastLe = le;
    }
  }
  EXPECT_GT(bucketLines, 2);
  EXPECT_TRUE(sawInf) << "le=\"+Inf\" bucket is mandatory";
  EXPECT_EQ(infCount, 1000u);
  EXPECT_NE(text.find("msc_serve_request_seconds_count 1000"),
            std::string::npos);

  // _sum must match the recorded total: sum_{1..1000} i*1e-4 = 50.05.
  const auto sumPos = text.find("msc_serve_request_seconds_sum ");
  ASSERT_NE(sumPos, std::string::npos);
  const double sum = std::stod(
      text.substr(sumPos + std::string("msc_serve_request_seconds_sum ").size()));
  EXPECT_NEAR(sum, 50.05, 1e-6);
}

TEST_F(PromExportTest, EmptyHistogramStillExportsClosedSeries) {
  msc::obs::histogram("idle.seconds");
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_NE(text.find("msc_idle_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("msc_idle_seconds_count 0"), std::string::npos);
  EXPECT_NE(text.find("msc_idle_seconds_sum 0"), std::string::npos);
}

TEST_F(PromExportTest, EmptyRegistryProducesEmptyOutput) {
  // A fresh registry: the global one keeps the registrations of earlier
  // tests in this process (reset() zeroes values, never unregisters).
  const Registry empty;
  EXPECT_EQ(msc::obs::toProm(empty), "");
}

TEST_F(PromExportTest, HostileNamesProduceWellFormedLines) {
  msc::obs::counter("weird name{with=\"labels\"}").add(1);
  const std::string text = msc::obs::toProm(Registry::global());
  EXPECT_NE(text.find("msc_weird_name_with__labels___total 1"),
            std::string::npos);
  // Every sample line must be `name[{labels}] value` with a sanitized name.
  for (const std::string& line : sampleLines(text)) {
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    // The bare metric name ends at the label block when one is present.
    const std::string name = line.substr(0, std::min(line.find('{'), space));
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "bad char '" << c << "' in series name " << line;
    }
  }
}

TEST_F(PromExportTest, TraceLaneDropCountersAreExported) {
  namespace trace = msc::obs::trace;
  const bool wasTracing = trace::enabled();
  const std::size_t savedCapacity = trace::bufferCapacity();
  trace::setEnabled(true);
  trace::setBufferCapacity(1);
  trace::clearAll();  // applies the tiny capacity to existing lanes
  trace::setCurrentThreadName("prom.test");
  trace::instant("prom.seed");
  // Zero-drop lanes are still exported: a rate() query wants a flat 0, not
  // an absent series that appears only after the first loss.
  EXPECT_NE(msc::obs::toProm(Registry::global())
                .find("msc_trace_dropped_events_total{lane=\""),
            std::string::npos);

  trace::instant("prom.wrap1");
  trace::instant("prom.wrap2");  // ring holds 1 event: two overwritten
  const std::string text = msc::obs::toProm(Registry::global());
  trace::setBufferCapacity(savedCapacity);
  trace::clearAll();
  trace::setEnabled(wasTracing);

  EXPECT_NE(text.find("# TYPE msc_trace_dropped_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("thread=\"prom.test\""), std::string::npos);
  std::uint64_t maxDropped = 0;
  for (const std::string& line : sampleLines(text)) {
    if (line.rfind("msc_trace_dropped_events_total{", 0) != 0) continue;
    maxDropped = std::max<std::uint64_t>(
        maxDropped, std::stoull(line.substr(line.find("} ") + 2)));
  }
  EXPECT_GE(maxDropped, 2u);
}

// Bare sample name of an exposition line ("name{...} v" or "name v").
std::string sampleName(const std::string& line) {
  return line.substr(0, std::min(line.find('{'), line.find(' ')));
}

std::set<std::string> sampleNames(const std::string& text) {
  std::set<std::string> names;
  for (const std::string& line : sampleLines(text)) {
    names.insert(sampleName(line));
  }
  return names;
}

TEST_F(PromExportTest, FullServePageIsWellFormed) {
  // Everything on: gated counters and span stats, trace lanes (for the
  // trace-drop family), both oracle backends, a progress stream and a
  // deadline-cancelled request.
  namespace trace = msc::obs::trace;
  const bool wasTracing = trace::enabled();
  trace::setEnabled(true);
  msc::serve::Server server;  // observes the queued phase
  msc::serve::Engine& engine = server.engine();
  const auto run = [&engine](const std::string& line) {
    const auto reply = msc::serve::json::parse(engine.handleLine(line));
    EXPECT_NE(reply.find("status")->asString(), "error") << line;
  };
  for (const char* mode : {"dense", "pair_centric"}) {
    std::ostringstream graph;
    msc::graph::writeEdgeList(graph, msc::test::randomGraph(30, 0.15, 5));
    run("{\"cmd\":\"load_graph\",\"as\":\"" + std::string(mode) +
        "\",\"distance_mode\":\"" + mode + "\",\"text\":" +
        msc::serve::json::dump(msc::serve::json::Value(graph.str())) + "}");
  }
  run("{\"cmd\":\"load_pairs\",\"as\":\"p\",\"text\":\"0 29\\n4 17\\n\"}");
  for (const char* mode : {"dense", "pair_centric"}) {
    run("{\"cmd\":\"solve\",\"graph\":\"" + std::string(mode) +
        "\",\"pairs\":\"p\",\"algo\":\"aa\",\"k\":2,\"threads\":1,"
        "\"progress\":{\"every_ms\":0}}");
  }
  run("{\"id\":1,\"cmd\":\"sleep\",\"ms\":5000,\"deadline_seconds\":0.01}");
  const std::string page = engine.metricsText();
  const std::string global = msc::obs::toProm(Registry::global());
  const std::string local = msc::obs::toProm(engine.metrics());
  trace::setEnabled(wasTracing);

  // Exactly one TYPE per family, and every sample sits in the block its
  // family's TYPE line opened (so each family's samples are contiguous).
  std::map<std::string, std::string> types;
  std::string family;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ss(line.substr(7));
      std::string type;
      ss >> family >> type;
      EXPECT_TRUE(types.emplace(family, type).second)
          << "second TYPE line for " << family;
      continue;
    }
    ASSERT_FALSE(family.empty()) << "sample before any TYPE: " << line;
    const std::string name = sampleName(line);
    bool inFamily = name == family;
    if (types[family] == "histogram" || types[family] == "summary") {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        inFamily = inFamily || name == family + suffix;
      }
    }
    EXPECT_TRUE(inFamily) << line << " outside its family (in " << family
                          << ")";
  }
  for (const char* expected :
       {"msc_trace_dropped_events_total", "msc_progress_snapshots_total",
        "msc_serve_oracle_queries_total", "msc_serve_requests_inflight",
        "msc_serve_request_seconds", "msc_span_serve_request"}) {
    EXPECT_EQ(types.count(expected), 1u) << expected;
  }

  // The two registries never export the same series name.
  const std::set<std::string> globalNames = sampleNames(global);
  for (const std::string& name : sampleNames(local)) {
    EXPECT_EQ(globalNames.count(name), 0u) << name << " in both registries";
  }
}

TEST_F(PromExportTest, WritePromFileRoundTrips) {
  msc::obs::counter("file.test").add(5);
  const std::string path = ::testing::TempDir() + "prom_export_test.prom";
  msc::obs::writePromFile(path, Registry::global());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("msc_file_test_total 5"), std::string::npos);
}

}  // namespace

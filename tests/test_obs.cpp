#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "serve/json.h"

namespace {

using msc::obs::Registry;
using msc::obs::ScopedSpan;

// The registry is process-global; every test starts from a clean, enabled
// slate and restores the disabled default on exit.
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, CounterRegistrationAndAccumulation) {
  auto& c = msc::obs::counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsTest, SameNameYieldsSameCounter) {
  auto& a = msc::obs::counter("test.same");
  auto& b = msc::obs::counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

// One name is one kind: a second registration as another of family, stat
// or histogram throws, naming both kinds, instead of exporting two
// `# TYPE` lines for the name.
TEST(RegistryNames, OneNameCannotBeTwoKinds) {
  Registry reg;
  const auto expectClash = [](const auto& registerAgain, const char* first,
                              const char* second) {
    try {
      registerAgain();
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(first), std::string::npos) << what;
      EXPECT_NE(what.find(second), std::string::npos) << what;
    }
  };
  reg.histogram("clash.latency");
  expectClash(
      [&] {
        reg.family("clash.latency", msc::obs::MetricType::Gauge, "help");
      },
      "histogram", "family");
  reg.family("clash.depth", msc::obs::MetricType::Counter, "help");
  expectClash([&] { reg.stat("clash.depth"); }, "family", "stat");
  expectClash([&] { reg.histogram("clash.depth"); }, "family", "histogram");
  reg.stat("clash.span");
  expectClash([&] { reg.counter("clash.span"); }, "stat", "family");
  // Re-registering the same kind still returns the existing handle.
  EXPECT_EQ(&reg.histogram("clash.latency"), &reg.histogram("clash.latency"));
}

TEST_F(ObsTest, StatRecordsWelfordSummary) {
  auto& s = msc::obs::stat("test.stat");
  s.record(2.0);
  s.record(4.0);
  s.record(9.0);
  const auto snap = s.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
  EXPECT_DOUBLE_EQ(snap.min(), 2.0);
  EXPECT_DOUBLE_EQ(snap.max(), 9.0);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsRegistrations) {
  auto& c = msc::obs::counter("test.reset");
  auto& s = msc::obs::stat("test.reset_stat");
  c.add(7);
  s.record(1.5);
  msc::obs::resetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.snapshot().count(), 0u);
  // Reference obtained before the reset still addresses the live entry.
  EXPECT_EQ(&c, &msc::obs::counter("test.reset"));
}

TEST_F(ObsTest, SpanRecordsDurationWhenEnabled) {
  {
    MSC_OBS_SPAN("test.scope");
  }
  const auto snap = msc::obs::stat("span.test.scope").snapshot();
  EXPECT_EQ(snap.count(), 1u);
  EXPECT_GE(snap.min(), 0.0);
}

TEST_F(ObsTest, SpanNestingTracksDepthAndRecordsBothLevels) {
  EXPECT_EQ(ScopedSpan::depth(), 0);
  {
    MSC_OBS_SPAN("test.outer");
    EXPECT_EQ(ScopedSpan::depth(), 1);
    {
      MSC_OBS_SPAN("test.inner");
      EXPECT_EQ(ScopedSpan::depth(), 2);
    }
    EXPECT_EQ(ScopedSpan::depth(), 1);
  }
  EXPECT_EQ(ScopedSpan::depth(), 0);
  EXPECT_EQ(msc::obs::stat("span.test.outer").snapshot().count(), 1u);
  EXPECT_EQ(msc::obs::stat("span.test.inner").snapshot().count(), 1u);
}

TEST_F(ObsTest, DisabledModeIsANoOpForSpans) {
  msc::obs::setEnabled(false);
  {
    MSC_OBS_SPAN("test.disabled");
    // Disabled spans do not join the nesting chain.
    EXPECT_EQ(ScopedSpan::depth(), 0);
  }
  msc::obs::setEnabled(true);
  // The span stat was never created, so it reads back empty.
  EXPECT_EQ(msc::obs::stat("span.test.disabled").snapshot().count(), 0u);
}

TEST_F(ObsTest, EnabledFlagFlipsAtRuntime) {
  EXPECT_TRUE(msc::obs::enabled());
  msc::obs::setEnabled(false);
  EXPECT_FALSE(msc::obs::enabled());
  msc::obs::setEnabled(true);
  EXPECT_TRUE(msc::obs::enabled());
}

TEST_F(ObsTest, JsonExportShape) {
  msc::obs::counter("alpha.count").add(5);
  msc::obs::stat("span.alpha.time").record(0.25);
  msc::obs::stat("empty.stat");  // registered, never recorded

  const std::string json = msc::obs::toJson(Registry::global());

  EXPECT_NE(json.find("\"schema\": \"msc.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha.count\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"span.alpha.time\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Empty stats stay valid JSON: count only, no NaN min/max leak through.
  EXPECT_NE(json.find("\"empty.stat\": {\"count\": 0}"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  // Structural sanity: braces balance and the document ends cleanly.
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsTest, TextExportListsCountersAndStats) {
  msc::obs::counter("beta.count").add(2);
  msc::obs::stat("span.beta.time").record(0.5);
  std::ostringstream os;
  msc::obs::writeText(os, Registry::global());
  const std::string text = os.str();
  EXPECT_NE(text.find("counters:"), std::string::npos);
  EXPECT_NE(text.find("beta.count"), std::string::npos);
  EXPECT_NE(text.find("span.beta.time"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST_F(ObsTest, JsonEscapesHostileNames) {
  msc::obs::counter("weird\"name\\with\nstuff").add(1);
  const std::string json = msc::obs::toJson(Registry::global());
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
}

// The exporter's output must stay machine-parseable JSON no matter what the
// registry holds; use the in-repo serve JSON parser as the oracle.

TEST_F(ObsTest, JsonExportWithHostileNamesParses) {
  msc::obs::counter("quote\"back\\slash").add(3);
  msc::obs::counter("ctrl\x01\x1fname").add(1);
  msc::obs::stat("tab\tnewline\nname").record(0.5);
  msc::obs::histogram("hist\"with\\escapes").record(0.001);

  const std::string json = msc::obs::toJson(Registry::global());
  const auto doc = msc::serve::json::parse(json);
  ASSERT_TRUE(doc.isObject());
  const auto& counters = doc.asObject().at("counters").asObject();
  EXPECT_EQ(counters.at("quote\"back\\slash").asNumber(), 3.0);
  EXPECT_EQ(counters.at("ctrl\x01\x1fname").asNumber(), 1.0);
  EXPECT_EQ(doc.asObject()
                .at("histograms")
                .asObject()
                .at("hist\"with\\escapes")
                .asObject()
                .at("count")
                .asNumber(),
            1.0);
}

TEST_F(ObsTest, JsonExportWithNonFiniteStatsParses) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Names deliberately avoid the substrings checked below.
  msc::obs::stat("bad.pos").record(kInf);
  msc::obs::stat("bad.notnum").record(std::numeric_limits<double>::quiet_NaN());
  msc::obs::stat("bad.neg").record(-kInf);

  const std::string json = msc::obs::toJson(Registry::global());
  // No bare inf/nan literal may appear; they map to null.
  EXPECT_EQ(json.find("inf"), std::string::npos)
      << "non-finite leaked into JSON: " << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
  const auto doc = msc::serve::json::parse(json);
  const auto& stats = doc.asObject().at("stats").asObject();
  EXPECT_TRUE(stats.at("bad.pos").asObject().at("mean").isNull());
  EXPECT_TRUE(stats.at("bad.notnum").asObject().at("mean").isNull());
}

TEST_F(ObsTest, JsonExportEmptyRegistryParses) {
  // A fresh registry: the global one keeps the registrations of earlier
  // tests in this process (reset() zeroes values, never unregisters).
  const Registry empty;
  const std::string json = msc::obs::toJson(empty);
  const auto doc = msc::serve::json::parse(json);
  ASSERT_TRUE(doc.isObject());
  EXPECT_TRUE(doc.asObject().at("counters").asObject().empty());
  EXPECT_TRUE(doc.asObject().at("stats").asObject().empty());
  // Back-compat: the histograms key only appears once one is registered.
  EXPECT_EQ(doc.asObject().count("histograms"), 0u);
}

TEST_F(ObsTest, JsonExportHistogramShape) {
  auto& h = msc::obs::histogram("test.latency");
  for (int i = 1; i <= 100; ++i) h.record(i * 0.001);
  msc::obs::histogram("test.empty_hist");  // registered, never recorded

  const auto doc = msc::serve::json::parse(msc::obs::toJson(Registry::global()));
  const auto& hists = doc.asObject().at("histograms").asObject();
  const auto& lat = hists.at("test.latency").asObject();
  EXPECT_EQ(lat.at("count").asNumber(), 100.0);
  const double p50 = lat.at("p50").asNumber();
  const double p90 = lat.at("p90").asNumber();
  const double p99 = lat.at("p99").asNumber();
  const double max = lat.at("max").asNumber();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, max);
  // Empty histograms render as count-only objects (no NaN min/max).
  const auto& empty = hists.at("test.empty_hist").asObject();
  EXPECT_EQ(empty.at("count").asNumber(), 0.0);
  EXPECT_EQ(empty.count("min"), 0u);
}

TEST_F(ObsTest, TextExportListsHistograms) {
  msc::obs::histogram("gamma.seconds").record(0.25);
  std::ostringstream os;
  msc::obs::writeText(os, Registry::global());
  const std::string text = os.str();
  EXPECT_NE(text.find("histograms (seconds):"), std::string::npos);
  EXPECT_NE(text.find("gamma.seconds"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

}  // namespace

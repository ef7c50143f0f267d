#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/report.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/stats.h"

namespace msc::bench {

namespace {

// JSON string/number helpers mirroring the metrics exporter: escape control
// characters, render non-finite numbers as null.
void appendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  std::ostringstream os;
  os.precision(9);
  os << v;
  out += os.str();
}

}  // namespace

HarnessConfig configFromEnv(HarnessConfig base) {
  base.warmup = static_cast<int>(
      std::max<std::int64_t>(0, util::envInt("MSC_BENCH_WARMUP", base.warmup)));
  base.repeats = static_cast<int>(std::max<std::int64_t>(
      1, util::envInt("MSC_BENCH_REPEATS", base.repeats)));
  return base;
}

Harness::Harness(std::string benchName, HarnessConfig config)
    : name_(std::move(benchName)), config_(config) {}

CaseResult Harness::run(const std::string& caseName,
                        const std::function<void()>& fn) {
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);

  for (int i = 0; i < config_.warmup; ++i) fn();

  CaseResult result;
  result.name = caseName;
  result.runs.reserve(static_cast<std::size_t>(config_.repeats));
  util::RunningStats stats;
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(config_.repeats));

  for (int i = 0; i < config_.repeats; ++i) {
    obs::resetAll();
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    RunSample sample;
    sample.seconds = secs;
    for (const auto& row : obs::Registry::global().counters()) {
      if (row.value != 0) sample.counters.emplace_back(row.name, row.value);
    }
    result.runs.push_back(std::move(sample));
    stats.push(secs);
    seconds.push_back(secs);
  }

  obs::resetAll();
  obs::setEnabled(wasEnabled);

  result.median = util::percentile(seconds, 50.0);
  result.mean = stats.mean();
  result.stddev = stats.stddev();
  result.min = stats.min();
  result.max = stats.max();
  result.p50 = result.median;
  result.p99 = util::percentile(seconds, 99.0);
  results_.push_back(std::move(result));
  return results_.back();
}

void Harness::addPhaseSamples(const std::string& phaseName,
                              const std::vector<double>& seconds) {
  if (results_.empty()) {
    throw std::logic_error(
        "bench harness: addPhaseSamples() before any run()");
  }
  if (seconds.empty()) return;
  PhaseResult phase;
  phase.name = phaseName;
  phase.count = seconds.size();
  phase.median = util::percentile(seconds, 50.0);
  phase.p99 = util::percentile(seconds, 99.0);
  results_.back().phases.push_back(std::move(phase));
}

std::string Harness::toJson() const {
  std::string out;
  out += "{\n  \"schema\": \"msc.bench.v1\",\n  \"name\": \"";
  appendEscaped(out, name_);
  out += "\",\n  \"warmup\": " + std::to_string(config_.warmup);
  out += ",\n  \"repeats\": " + std::to_string(config_.repeats);
  out += ",\n  \"cases\": {";
  bool firstCase = true;
  for (const CaseResult& c : results_) {
    out += firstCase ? "\n" : ",\n";
    firstCase = false;
    out += "    \"";
    appendEscaped(out, c.name);
    out += "\": {\n      \"seconds\": [";
    for (std::size_t i = 0; i < c.runs.size(); ++i) {
      if (i != 0) out += ", ";
      appendNumber(out, c.runs[i].seconds);
    }
    out += "],\n      \"median\": ";
    appendNumber(out, c.median);
    out += ",\n      \"mean\": ";
    appendNumber(out, c.mean);
    out += ",\n      \"stddev\": ";
    appendNumber(out, c.stddev);
    out += ",\n      \"min\": ";
    appendNumber(out, c.min);
    out += ",\n      \"max\": ";
    appendNumber(out, c.max);
    out += ",\n      \"p50\": ";
    appendNumber(out, c.p50);
    out += ",\n      \"p99\": ";
    appendNumber(out, c.p99);
    if (!c.phases.empty()) {
      out += ",\n      \"phases\": {";
      bool firstPhase = true;
      for (const PhaseResult& p : c.phases) {
        if (!firstPhase) out += ", ";
        firstPhase = false;
        out += '"';
        appendEscaped(out, p.name);
        out += "\": {\"count\": " + std::to_string(p.count) + ", \"median\": ";
        appendNumber(out, p.median);
        out += ", \"p99\": ";
        appendNumber(out, p.p99);
        out += '}';
      }
      out += '}';
    }
    out += ",\n      \"runs\": [";
    for (std::size_t i = 0; i < c.runs.size(); ++i) {
      out += i == 0 ? "\n        {" : ",\n        {";
      out += "\"seconds\": ";
      appendNumber(out, c.runs[i].seconds);
      out += ", \"counters\": {";
      bool firstCounter = true;
      for (const auto& [key, value] : c.runs[i].counters) {
        if (!firstCounter) out += ", ";
        firstCounter = false;
        out += '"';
        appendEscaped(out, key);
        out += "\": " + std::to_string(value);
      }
      out += "}}";
    }
    if (!c.runs.empty()) out += "\n      ";
    out += "]\n    }";
  }
  if (!results_.empty()) out += "\n  ";
  out += "}\n}\n";
  return out;
}

std::string Harness::writeJson() const {
  const std::string path = eval::outputDir() + "/BENCH_" + name_ + ".json";
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("bench harness: cannot open " + path);
  }
  file << toJson();
  return path;
}

}  // namespace msc::bench

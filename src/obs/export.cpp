#include "obs/export.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace msc::obs {

namespace {

// Registry names are plain identifiers, but escape defensively so the
// document stays valid JSON no matter what a caller registers.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream hex;
          hex << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c);
          out += hex.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no NaN/Inf literal; map them to null.
void appendNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  os << std::setprecision(17) << v;
}

void appendHistogramFields(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\": " << h.count;
  if (h.count > 0) {
    os << ", \"sum\": ";
    appendNumber(os, h.sum);
    os << ", \"min\": ";
    appendNumber(os, h.min);
    os << ", \"max\": ";
    appendNumber(os, h.max);
    os << ", \"p50\": ";
    appendNumber(os, h.p50());
    os << ", \"p90\": ";
    appendNumber(os, h.p90());
    os << ", \"p99\": ";
    appendNumber(os, h.p99());
  }
  os << "}";
}

void appendStatFields(std::ostream& os, const util::RunningStats& s) {
  os << "{\"count\": " << s.count();
  if (s.count() > 0) {
    os << ", \"total\": ";
    appendNumber(os, s.mean() * static_cast<double>(s.count()));
    os << ", \"mean\": ";
    appendNumber(os, s.mean());
    os << ", \"min\": ";
    appendNumber(os, s.min());
    os << ", \"max\": ";
    appendNumber(os, s.max());
    os << ", \"stddev\": ";
    appendNumber(os, s.stddev());
  }
  os << "}";
}

}  // namespace

void writeText(std::ostream& os, const Registry& registry) {
  const auto counters = registry.counters();
  const auto gauges = registry.gauges();
  const auto stats = registry.stats();
  const auto histograms = registry.histograms();

  std::size_t width = 0;
  for (const auto& row : counters) width = std::max(width, row.name.size());
  for (const auto& row : gauges) width = std::max(width, row.name.size());
  for (const auto& row : stats) width = std::max(width, row.name.size());
  for (const auto& row : histograms) width = std::max(width, row.name.size());

  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& row : counters) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  " << row.value << '\n';
    }
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& row : gauges) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  " << std::setprecision(6) << row.value << '\n';
    }
  }
  if (!stats.empty()) {
    os << "stats (span.* in seconds):\n";
    for (const auto& row : stats) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  count=" << row.stats.count();
      if (row.stats.count() > 0) {
        os << std::setprecision(6) << " mean=" << row.stats.mean()
           << " min=" << row.stats.min() << " max=" << row.stats.max()
           << " total="
           << row.stats.mean() * static_cast<double>(row.stats.count());
      }
      os << '\n';
    }
  }
  if (!histograms.empty()) {
    os << "histograms (seconds):\n";
    for (const auto& row : histograms) {
      os << "  " << std::left << std::setw(static_cast<int>(width))
         << row.name << "  count=" << row.snapshot.count;
      if (row.snapshot.count > 0) {
        os << std::setprecision(6) << " p50=" << row.snapshot.p50()
           << " p90=" << row.snapshot.p90() << " p99=" << row.snapshot.p99()
           << " max=" << row.snapshot.max;
      }
      os << '\n';
    }
  }
}

void writeJson(std::ostream& os, const Registry& registry) {
  const auto counters = registry.counters();
  const auto gauges = registry.gauges();
  const auto stats = registry.stats();
  const auto histograms = registry.histograms();

  os << "{\n  \"schema\": \"msc.metrics.v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ',';
    os << "\n    \"" << jsonEscape(counters[i].name)
       << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "},\n" : "\n  },\n");
  os << "  \"stats\": {";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i) os << ',';
    os << "\n    \"" << jsonEscape(stats[i].name) << "\": ";
    appendStatFields(os, stats[i].stats);
  }
  os << (stats.empty() ? "}" : "\n  }");
  if (!gauges.empty()) {
    os << ",\n  \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      if (i) os << ',';
      os << "\n    \"" << jsonEscape(gauges[i].name) << "\": ";
      appendNumber(os, gauges[i].value);
    }
    os << "\n  }";
  }
  if (!histograms.empty()) {
    os << ",\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      if (i) os << ',';
      os << "\n    \"" << jsonEscape(histograms[i].name) << "\": ";
      appendHistogramFields(os, histograms[i].snapshot);
    }
    os << "\n  }";
  }
  os << "\n}\n";
}

std::string toJson(const Registry& registry) {
  std::ostringstream os;
  writeJson(os, registry);
  return os.str();
}

void writeJsonFile(const std::string& path, const Registry& registry) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open metrics output file: " + path);
  }
  writeJson(out, registry);
}

}  // namespace msc::obs

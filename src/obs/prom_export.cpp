#include "obs/prom_export.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace msc::obs {

namespace {

// Prometheus value rendering: Go-style floats, with NaN/+Inf/-Inf spelled
// out (the text format, unlike JSON, has literals for them).
void appendValue(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
  }
}

std::string promName(const std::string& registryName) {
  return "msc_" + promSanitizeName(registryName);
}

// Label values allow any UTF-8 but \, " and newline must be escaped
// (Prometheus text format 0.0.4).
void appendLabelValue(std::ostream& os, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

}  // namespace

std::string promSanitizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string promFamilyName(const Family& family) {
  return promName(family.name()) +
         (family.type() == MetricType::Counter ? "_total" : "");
}

void writeProm(std::ostream& os, const Registry& registry) {
  for (const auto& row : registry.families()) {
    // A family with no samples (a collector with nothing to report) has
    // nothing to declare either.
    if (row.samples.empty()) continue;
    const std::string name = promFamilyName(*row.family);
    os << "# HELP " << name << ' ' << row.family->help() << '\n';
    os << "# TYPE " << name << ' '
       << (row.family->type() == MetricType::Counter ? "counter" : "gauge")
       << '\n';
    for (const Sample& sample : row.samples) {
      os << name;
      for (std::size_t i = 0; i < sample.labels.size(); ++i) {
        os << (i == 0 ? '{' : ',') << sample.labels[i].first << "=\"";
        appendLabelValue(os, sample.labels[i].second);
        os << '"';
      }
      if (!sample.labels.empty()) os << '}';
      os << ' ';
      appendValue(os, sample.value);
      os << '\n';
    }
  }

  for (const auto& row : registry.stats()) {
    const std::string name = promName(row.name);
    const auto& s = row.stats;
    os << "# HELP " << name << " msc stat " << row.name
       << " (span.* in seconds)\n";
    os << "# TYPE " << name << " summary\n";
    os << name << "_count " << s.count() << '\n';
    os << name << "_sum ";
    appendValue(os, s.count() > 0 ? s.mean() * static_cast<double>(s.count())
                                  : 0.0);
    os << '\n';
    // A stat with no samples has no min/max; omit the gauges rather than
    // print NaN — a freshly started server must never serve a page whose
    // very first scrape some collectors reject wholesale.
    if (s.count() > 0) {
      os << "# TYPE " << name << "_min gauge\n";
      os << name << "_min ";
      appendValue(os, s.min());
      os << '\n';
      os << "# TYPE " << name << "_max gauge\n";
      os << name << "_max ";
      appendValue(os, s.max());
      os << '\n';
    }
  }

  for (const auto& row : registry.histograms()) {
    const std::string name = promName(row.name);
    const HistogramSnapshot& snap = row.snapshot;
    os << "# HELP " << name << " msc histogram " << row.name << " (seconds)\n";
    os << "# TYPE " << name << " histogram\n";
    // Cumulative buckets; boundaries whose count never moved are elided
    // (any subset of boundaries is a valid histogram as long as the series
    // is cumulative and le="+Inf" closes it).
    std::uint64_t cumulative = 0;
    // The overflow bucket has upper bound +Inf and is covered by the
    // closing le="+Inf" line, so the loop stops one short of it.
    for (std::size_t i = 0; i + 1 < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      os << name << "_bucket{le=\"";
      appendValue(os, HistogramSnapshot::upperBound(i));
      os << "\"} " << cumulative << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    os << name << "_sum ";
    appendValue(os, snap.sum);
    os << '\n';
    os << name << "_count " << snap.count << '\n';
  }
}

std::string toProm(const Registry& registry) {
  std::ostringstream os;
  writeProm(os, registry);
  return os.str();
}

void writePromFile(const std::string& path, const Registry& registry) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open prometheus output file: " + path);
  }
  writeProm(out, registry);
}

}  // namespace msc::obs

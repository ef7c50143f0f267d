#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"
#include "util/env.h"

namespace msc::obs {

namespace {

thread_local int gSpanDepth = 0;

/// The family name, then `{label=value,...}` when the sample has labels.
std::string sampleKey(const std::string& family, const Sample& sample) {
  std::string key = family;
  for (std::size_t i = 0; i < sample.labels.size(); ++i) {
    key += i == 0 ? '{' : ',';
    key += sample.labels[i].first + '=' + sample.labels[i].second;
  }
  if (!sample.labels.empty()) key += '}';
  return key;
}

template <typename Row>
std::vector<Row> flatten(const std::vector<Registry::FamilyRow>& families,
                         MetricType type) {
  std::vector<Row> rows;
  for (const Registry::FamilyRow& row : families) {
    if (row.family->type() != type) continue;
    for (const Sample& s : row.samples) {
      rows.push_back({sampleKey(row.family->name(), s),
                      static_cast<decltype(Row::value)>(s.value)});
    }
  }
  return rows;
}

}  // namespace

Family::Family(std::string name, MetricType type, std::string help,
               std::vector<Label> labels)
    : name_(std::move(name)),
      type_(type),
      help_(std::move(help)),
      labels_(std::move(labels)) {
  // Every combination of the declared label values, first label slowest.
  std::vector<std::vector<std::string>> combos{{}};
  for (const Label& label : labels_) {
    std::vector<std::vector<std::string>> next;
    for (const auto& prefix : combos) {
      for (const std::string& value : label.values) {
        next.push_back(prefix);
        next.back().push_back(value);
      }
    }
    combos = std::move(next);
  }
  for (auto& values : combos) series_.emplace_back().values = std::move(values);
}

Family::Series& Family::series(std::initializer_list<std::string_view> values,
                               MetricType handle) {
  if (handle != type_) {
    throw std::logic_error("metric family " + name_ +
                           " has no handle of that type");
  }
  for (Series& s : series_) {
    if (std::equal(s.values.begin(), s.values.end(), values.begin(),
                   values.end())) {
      return s;
    }
  }
  throw std::invalid_argument("metric family " + name_ +
                              ": undeclared label values");
}

Counter& Family::counter(std::initializer_list<std::string_view> values) {
  return series(values, MetricType::Counter).counter;
}

Gauge& Family::gauge(std::initializer_list<std::string_view> values) {
  return series(values, MetricType::Gauge).gauge;
}

void Family::observe(std::initializer_list<std::string_view> values,
                     std::function<double()> read) {
  Series& s = series(values, type_);
  const std::lock_guard<std::mutex> lock(mu_);
  s.read = std::move(read);
}

void Family::collect(Collector collector) {
  const std::lock_guard<std::mutex> lock(mu_);
  collector_ = std::move(collector);
}

std::vector<Sample> Family::samples() const {
  std::vector<Sample> out;
  const std::lock_guard<std::mutex> lock(mu_);
  if (collector_) {
    collector_(out);
    return out;
  }
  out.reserve(series_.size());
  for (const Series& s : series_) {
    Sample& sample = out.emplace_back();
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      sample.labels.emplace_back(labels_[i].name, s.values[i]);
    }
    if (s.read) {
      sample.value = s.read();
    } else if (type_ == MetricType::Counter) {
      sample.value = static_cast<double>(s.counter.value());
    } else {
      sample.value = s.gauge.value();
    }
  }
  return out;
}

void Family::reset() noexcept {
  for (Series& s : series_) {
    s.counter.reset();
    s.gauge.reset();
  }
}

Registry::Registry() { enabled_.store(util::envBool("MSC_METRICS", false)); }

Registry& Registry::global() {
  // Leaked on purpose: instrumentation sites cache Counter&/Stat& handles
  // in function-local statics, and atexit reporters may run after other
  // static destructors; a heap registry removes every ordering hazard.
  static Registry* instance = new Registry();
  return *instance;
}

Family& Registry::family(std::string_view name, MetricType type,
                         std::string_view help,
                         std::vector<Family::Label> labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    return families_
        .try_emplace(std::string(name), std::string(name), type,
                     std::string(help), std::move(labels))
        .first->second;
  }
  if (it->second.type() != type) {
    throw std::logic_error("metric family " + std::string(name) +
                           " redeclared with another type");
  }
  return it->second;
}

Family& Registry::family(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end()) {
    throw std::out_of_range("undeclared metric family " + std::string(name));
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = families_.find(name);
    if (it != families_.end()) return it->second.counter();
  }
  return family(name, MetricType::Counter,
                "msc counter " + std::string(name))
      .counter();
}

Stat& Registry::stat(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    it = stats_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, f] : families_) f.reset();
  for (auto& [name, s] : stats_) s.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::vector<Registry::FamilyRow> Registry::families() const {
  std::vector<FamilyRow> rows;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(families_.size());
    for (const auto& [name, f] : families_) rows.push_back({&f, {}});
  }
  // Families are never erased, so the pointers outlive the lock; reading
  // outside it lets observe() callbacks and collectors take their own
  // locks (the instance cache, the trace lanes) in any order.
  for (FamilyRow& row : rows) row.samples = row.family->samples();
  return rows;
}

std::vector<Registry::CounterRow> Registry::counters() const {
  return flatten<CounterRow>(families(), MetricType::Counter);
}

std::vector<Registry::GaugeRow> Registry::gauges() const {
  return flatten<GaugeRow>(families(), MetricType::Gauge);
}

std::vector<Registry::StatRow> Registry::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StatRow> rows;
  rows.reserve(stats_.size());
  for (const auto& [name, s] : stats_) rows.push_back({name, s.snapshot()});
  return rows;
}

std::vector<Registry::HistogramRow> Registry::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramRow> rows;
  rows.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    rows.push_back({name, h.snapshot()});
  }
  return rows;
}

ScopedSpan::ScopedSpan(const char* name) {
  Registry& reg = Registry::global();
  const bool metricsOn = reg.enabled();
  const bool traceOn = trace::enabled();
  if (!metricsOn && !traceOn) return;
  if (metricsOn) {
    std::string key("span.");
    key.append(name);
    stat_ = &reg.stat(key);
    start_ = std::chrono::steady_clock::now();
  }
  if (traceOn) {
    traceName_ = name;
    trace::begin(name);
  }
  ++gSpanDepth;
}

ScopedSpan::~ScopedSpan() {
  if (stat_ == nullptr && traceName_ == nullptr) return;
  if (traceName_ != nullptr) trace::end(traceName_);
  if (stat_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    stat_->record(std::chrono::duration<double>(elapsed).count());
  }
  --gSpanDepth;
}

int ScopedSpan::depth() noexcept { return gSpanDepth; }

}  // namespace msc::obs

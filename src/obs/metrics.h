// Solver observability: a metrics registry of labeled counter and gauge
// families, Welford-backed value stats, latency histograms and RAII scoped
// spans.
//
// Every algorithm hot path (sigma evaluation, Dijkstra, the greedy passes,
// the evolutionary loops) publishes operation counts here so that bench
// runs and the CLI can report *what the solver actually did* — not just
// wall clock. The registry is disabled by default and costs one relaxed
// atomic load per guarded call site; enable it programmatically via
// `setEnabled(true)` or by exporting `MSC_METRICS=1`.
//
// Usage at an instrumentation site:
//
//   if (msc::obs::enabled()) {
//     static auto& runs = msc::obs::counter("dijkstra.runs");
//     runs.add(1);
//   }
//   ...
//   MSC_OBS_SPAN("greedy.iteration");   // records span.greedy.iteration
//
// A plain counter is a label-less counter family. Labeled series are
// declared once as a Family with help text, type and label values; every
// label combination exists from the start, at zero. The exporters
// (obs/export.h, obs/prom_export.h) render the families, so the
// Prometheus page, the metrics JSON and the text footer are views of one
// registry.
//
// Handles are stable for the registry's lifetime: the global registry is
// intentionally leaked and entries are never erased (reset() zeroes values
// but keeps registrations), so cached `static auto&` handles stay valid
// across resets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "util/stats.h"

namespace msc::obs {

/// Monotonic event counter. Thread-safe (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Welford accumulator over recorded samples (span durations in seconds,
/// archive sizes, ...). Thread-safe via a per-stat mutex; record() is only
/// called on enabled paths, never in disabled-mode hot loops.
class Stat {
 public:
  void record(double x) {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.push(x);
  }
  /// Copy of the current accumulator state.
  util::RunningStats snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    stats_ = util::RunningStats();
  }

 private:
  mutable std::mutex mu_;
  util::RunningStats stats_;
};

/// Last-value gauge (bytes resident, requests in flight, a rate).
/// Thread-safe (relaxed atomic).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricType { Counter, Gauge };

/// One exported value of a family, with its (label name, value) pairs in
/// the family's label order.
struct Sample {
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

/// A labeled metric family: one name, help text, type and label set.
/// Declaring it registers every combination of the declared label values
/// at zero, so a series never appears late. A series is bumped through its
/// handle (counter()/gauge()) or, when its value lives elsewhere, read at
/// scrape through observe(). A family whose label values are only known at
/// scrape time (trace lanes) produces its samples with collect() instead.
class Family {
 public:
  struct Label {
    std::string name;
    std::vector<std::string> values;  ///< every value; registered at zero
  };
  using Collector = std::function<void(std::vector<Sample>&)>;

  Family(std::string name, MetricType type, std::string help,
         std::vector<Label> labels);

  const std::string& name() const noexcept { return name_; }
  MetricType type() const noexcept { return type_; }
  const std::string& help() const noexcept { return help_; }
  const std::vector<Label>& labels() const noexcept { return labels_; }

  /// Handle of the series with these label values (one per label, in
  /// declaration order). Throws std::invalid_argument for an undeclared
  /// combination and std::logic_error for a handle of the other type.
  Counter& counter(std::initializer_list<std::string_view> values = {});
  Gauge& gauge(std::initializer_list<std::string_view> values = {});
  /// Makes the series read `read()` at every scrape instead of its handle.
  void observe(std::initializer_list<std::string_view> values,
               std::function<double()> read);
  /// Replaces the declared series with the samples `collector` appends at
  /// every scrape.
  void collect(Collector collector);

  /// Current samples: the declared series in declaration order (first
  /// label slowest), or the collector's.
  std::vector<Sample> samples() const;
  /// Zeroes every handle; observed and collected values are not ours.
  void reset() noexcept;

 private:
  struct Series {
    std::vector<std::string> values;
    Counter counter;
    Gauge gauge;
    std::function<double()> read;  // set by observe(); wins over handles
  };
  /// The series with these values; `handle` must be the family's type.
  Series& series(std::initializer_list<std::string_view> values,
                 MetricType handle);

  std::string name_;
  MetricType type_;
  std::string help_;
  std::vector<Label> labels_;
  std::deque<Series> series_;  // fixed at construction; never moves
  mutable std::mutex mu_;      // guards `read` and collector_ vs scrapes
  Collector collector_;
};

/// Registry of metric families, stats and histograms. Lookup allocates on
/// first use of a name and is mutex-guarded; hot call sites cache the
/// returned reference in a function-local static.
class Registry {
 public:
  /// A standalone registry (each serve::Engine owns one for its own
  /// series), `enabled` seeded from MSC_METRICS like the global one.
  Registry();

  /// The process-wide registry; intentionally leaked so handles stay valid
  /// during static destruction.
  static Registry& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Declares family `name`, or returns the one already declared (a
  /// redeclaration with another type throws std::logic_error). One name
  /// is one kind: registering a name already taken by another of family,
  /// stat or histogram throws std::logic_error naming both. `name` is a
  /// registry name ("serve.oracle.rows"); the exporters derive the
  /// exposition name from it.
  Family& family(std::string_view name, MetricType type, std::string_view help,
                 std::vector<Family::Label> labels = {});
  /// An already declared family; throws std::out_of_range otherwise.
  Family& family(std::string_view name);
  /// The label-less counter family `name`.
  Counter& counter(std::string_view name);
  Stat& stat(std::string_view name);
  /// Log-linear latency histogram (obs/histogram.h). Unlike counters and
  /// stats, histogram record() sites are NOT gated on enabled(): recording
  /// is a few relaxed atomic ops into bounded storage, cheap enough for
  /// service hot paths that need tail latency visible at all times.
  Histogram& histogram(std::string_view name);

  /// Zeroes every handle, stat and histogram but keeps all registrations
  /// (and thus all outstanding references) valid.
  void reset();

  struct FamilyRow {
    const Family* family;
    std::vector<Sample> samples;
  };
  /// One family sample, named `family` or `family{label=value,...}`.
  struct CounterRow {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeRow {
    std::string name;
    double value;
  };
  struct StatRow {
    std::string name;
    util::RunningStats stats;
  };
  struct HistogramRow {
    std::string name;
    HistogramSnapshot snapshot;
  };
  /// Sorted-by-name snapshots for the exporters. families() reads every
  /// handle, observed series and collector now; counters() and gauges()
  /// flatten it to one row per sample of that type.
  std::vector<FamilyRow> families() const;
  std::vector<CounterRow> counters() const;
  std::vector<GaugeRow> gauges() const;
  std::vector<StatRow> stats() const;
  std::vector<HistogramRow> histograms() const;

 private:
  /// Throws std::logic_error when `name` is already registered as another
  /// kind than `kind`. Caller holds mu_ and has checked its own map.
  void checkNameFreeLocked(std::string_view name, std::string_view kind) const;

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
  std::map<std::string, Stat, std::less<>> stats_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::atomic<bool> enabled_{false};
};

/// Shorthands against the global registry.
inline bool enabled() noexcept { return Registry::global().enabled(); }
inline void setEnabled(bool on) noexcept { Registry::global().setEnabled(on); }
inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
inline Stat& stat(std::string_view name) {
  return Registry::global().stat(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}
inline void resetAll() { Registry::global().reset(); }

/// RAII span: when metrics are enabled at construction, records the scope's
/// wall duration (seconds) into stat "span.<name>"; when tracing
/// (obs/trace.h) is enabled, additionally emits a begin/end event pair on
/// the current thread's timeline lane. Tracks nesting depth for the
/// current thread while either backend is on. A fully disabled span is two
/// relaxed loads and no clock reads.
///
/// `name` must have static storage duration (pass a string literal) — the
/// trace backend stores the pointer, not a copy.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Nesting depth of currently-open *enabled* spans on this thread.
  static int depth() noexcept;

 private:
  Stat* stat_ = nullptr;            // null when metrics are off
  const char* traceName_ = nullptr; // null when tracing is off
  std::chrono::steady_clock::time_point start_{};
};

#define MSC_OBS_CONCAT_INNER(a, b) a##b
#define MSC_OBS_CONCAT(a, b) MSC_OBS_CONCAT_INNER(a, b)
/// Opens a ScopedSpan for the rest of the enclosing scope.
#define MSC_OBS_SPAN(name) \
  ::msc::obs::ScopedSpan MSC_OBS_CONCAT(mscObsSpan_, __LINE__)(name)

}  // namespace msc::obs

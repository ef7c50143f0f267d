#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "util/env.h"

namespace msc::obs::trace {

namespace {

/// One thread lane's ring storage. Recording threads touch only their own
/// lane; the lane mutex is therefore uncontended except while a snapshot /
/// clearAll walks the registry.
struct LaneBuffer {
  std::mutex mu;
  std::vector<Event> ring;  // size() grows up to `capacity`, then wraps
  std::size_t capacity = 1;
  std::uint64_t written = 0;  // monotonic; slot = written % capacity
  std::uint64_t dropped = 0;
  const char* threadName = nullptr;
  int tid = 0;
};

struct Global {
  std::atomic<bool> enabled{false};
  std::atomic<std::size_t> capacity{16384};
  std::chrono::steady_clock::time_point epoch;
  std::mutex mu;  // guards lanes, freeLanes, interner
  std::vector<LaneBuffer*> lanes;         // leaked; index == tid
  std::vector<std::size_t> freeLanes;     // lanes parked by exited threads
  std::set<std::string, std::less<>> interner;  // node-based: stable c_str()

  Global() {
    enabled.store(util::envBool("MSC_TRACE", false));
    const std::int64_t cap = util::envInt("MSC_TRACE_BUFFER", 16384);
    capacity.store(cap < 1 ? 1 : static_cast<std::size_t>(cap));
    epoch = std::chrono::steady_clock::now();
    // Per-lane drop counters as an always-on global family: silent
    // ring-buffer loss made visible to monitoring. Every lane that ever
    // recorded an event reports, zeros included, so a rate() query shows
    // a flat 0 instead of an absent series until the first loss.
    Registry::global()
        .family("trace.dropped_events", MetricType::Counter,
                "trace events overwritten by ring-buffer wrap, per thread lane",
                {{"lane", {}}, {"thread", {}}})
        .collect([](std::vector<Sample>& out) {
          for (const LaneDropCount& lane : laneDropCounts()) {
            Sample& s = out.emplace_back();
            s.labels.emplace_back("lane", std::to_string(lane.tid));
            if (lane.threadName != nullptr) {
              s.labels.emplace_back("thread", lane.threadName);
            }
            s.value = static_cast<double>(lane.dropped);
          }
        });
  }
};

Global& g() {
  // Leaked like the metrics registry: exit-time exporters and late thread
  // destructors may run after other statics are gone.
  static Global* instance = new Global();
  return *instance;
}

/// Thread-exit hook: parks this thread's lane for reuse so short-lived
/// threads (sandwich passes) recycle lanes instead of growing the registry.
struct TlsLane {
  LaneBuffer* lane = nullptr;
  const char* pendingName = nullptr;
  ~TlsLane() {
    if (lane == nullptr) return;
    Global& G = g();
    const std::lock_guard<std::mutex> lock(G.mu);
    G.freeLanes.push_back(static_cast<std::size_t>(lane->tid));
  }
};

thread_local TlsLane tlsLane;

// Request id stamped into this thread's events; owned by the context layer
// (obs/context.h ScopedRequestBind), read once per record().
thread_local std::uint64_t tlsRequestId = 0;

LaneBuffer& acquireLane() {
  TlsLane& t = tlsLane;
  if (t.lane == nullptr) {
    Global& G = g();
    const std::lock_guard<std::mutex> lock(G.mu);
    if (!G.freeLanes.empty()) {
      t.lane = G.lanes[G.freeLanes.back()];
      G.freeLanes.pop_back();
    } else {
      auto* lane = new LaneBuffer();  // leaked with the registry
      lane->capacity = G.capacity.load(std::memory_order_relaxed);
      lane->ring.reserve(std::min<std::size_t>(lane->capacity, 1024));
      lane->tid = static_cast<int>(G.lanes.size());
      G.lanes.push_back(lane);
      t.lane = lane;
    }
  }
  if (t.pendingName != nullptr) {
    const std::lock_guard<std::mutex> lock(t.lane->mu);
    t.lane->threadName = t.pendingName;
    t.pendingName = nullptr;
  }
  return *t.lane;
}

void record(EventKind kind, const char* name,
            std::initializer_list<Arg> args) {
  Global& G = g();
  if (!G.enabled.load(std::memory_order_relaxed)) return;

  Event e;
  e.tsNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - G.epoch)
               .count();
  e.name = name;
  e.kind = kind;
  e.req = tlsRequestId;
  e.argCount = static_cast<std::uint8_t>(
      std::min<std::size_t>(args.size(), Event::kMaxArgs));
  std::size_t i = 0;
  for (const Arg& a : args) {
    if (i >= Event::kMaxArgs) break;
    e.args[i++] = a;
  }

  LaneBuffer& lane = acquireLane();
  const std::lock_guard<std::mutex> lock(lane.mu);
  if (lane.ring.size() < lane.capacity) {
    lane.ring.push_back(e);
  } else {
    lane.ring[lane.written % lane.capacity] = e;
    ++lane.dropped;
  }
  ++lane.written;
}

}  // namespace

bool enabled() noexcept {
  return g().enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on) noexcept {
  g().enabled.store(on, std::memory_order_relaxed);
}

const char* intern(std::string_view s) {
  Global& G = g();
  const std::lock_guard<std::mutex> lock(G.mu);
  const auto it = G.interner.find(s);
  if (it != G.interner.end()) return it->c_str();
  return G.interner.emplace(s).first->c_str();
}

void begin(const char* name, std::initializer_list<Arg> args) {
  record(EventKind::Begin, name, args);
}

void end(const char* name) { record(EventKind::End, name, {}); }

void instant(const char* name, std::initializer_list<Arg> args) {
  record(EventKind::Instant, name, args);
}

void counter(const char* name, double value) {
  record(EventKind::Counter, name, {{"value", value}});
}

void setCurrentRequestId(std::uint64_t id) noexcept { tlsRequestId = id; }

std::uint64_t currentRequestId() noexcept { return tlsRequestId; }

std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g().epoch)
      .count();
}

void setCurrentThreadName(const char* name) {
  TlsLane& t = tlsLane;
  if (t.lane != nullptr) {
    const std::lock_guard<std::mutex> lock(t.lane->mu);
    t.lane->threadName = name;
  } else {
    // Applied lazily when this thread records its first event, so naming a
    // thread costs nothing while tracing is disabled.
    t.pendingName = name;
  }
}

std::size_t Snapshot::eventCount() const noexcept {
  std::size_t n = 0;
  for (const Lane& lane : lanes) n += lane.events.size();
  return n;
}

Snapshot snapshot() {
  Global& G = g();
  std::vector<LaneBuffer*> lanes;
  {
    const std::lock_guard<std::mutex> lock(G.mu);
    lanes = G.lanes;
  }
  Snapshot snap;
  snap.lanes.reserve(lanes.size());
  for (LaneBuffer* buffer : lanes) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    Lane lane;
    lane.tid = buffer->tid;
    lane.threadName = buffer->threadName;
    lane.dropped = buffer->dropped;
    lane.events.reserve(buffer->ring.size());
    // Oldest-first: once wrapped, the oldest event sits at written % cap.
    const std::size_t size = buffer->ring.size();
    const std::size_t start =
        buffer->written > size
            ? static_cast<std::size_t>(buffer->written % buffer->capacity)
            : 0;
    for (std::size_t i = 0; i < size; ++i) {
      lane.events.push_back(buffer->ring[(start + i) % size]);
    }
    snap.droppedTotal += lane.dropped;
    snap.lanes.push_back(std::move(lane));
  }
  return snap;
}

void clearAll() {
  Global& G = g();
  const std::lock_guard<std::mutex> lock(G.mu);
  const std::size_t cap = G.capacity.load(std::memory_order_relaxed);
  for (LaneBuffer* buffer : G.lanes) {
    const std::lock_guard<std::mutex> laneLock(buffer->mu);
    buffer->ring.clear();
    buffer->ring.shrink_to_fit();
    buffer->written = 0;
    buffer->dropped = 0;
    buffer->capacity = cap;
  }
}

std::uint64_t droppedEvents() noexcept {
  Global& G = g();
  std::vector<LaneBuffer*> lanes;
  {
    const std::lock_guard<std::mutex> lock(G.mu);
    lanes = G.lanes;
  }
  std::uint64_t total = 0;
  for (LaneBuffer* buffer : lanes) {
    const std::lock_guard<std::mutex> laneLock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

std::vector<LaneDropCount> laneDropCounts() {
  Global& G = g();
  std::vector<LaneBuffer*> lanes;
  {
    const std::lock_guard<std::mutex> lock(G.mu);
    lanes = G.lanes;
  }
  std::vector<LaneDropCount> counts;
  counts.reserve(lanes.size());
  for (LaneBuffer* buffer : lanes) {
    const std::lock_guard<std::mutex> laneLock(buffer->mu);
    counts.push_back({buffer->tid, buffer->threadName, buffer->dropped});
  }
  return counts;
}

void setBufferCapacity(std::size_t events) {
  g().capacity.store(events < 1 ? 1 : events, std::memory_order_relaxed);
}

std::size_t bufferCapacity() noexcept {
  return g().capacity.load(std::memory_order_relaxed);
}

}  // namespace msc::obs::trace

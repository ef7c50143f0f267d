#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>

namespace perfbench {

double processCpuSeconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  // getrusage's ru_maxrss survives execve, so a small program launched from
  // a larger parent reports the parent's peak; VmHWM belongs to this image.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Tracer ---------------------------------------------------------------

int Tracer::begin(std::string name, std::string layer) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.startNs = nowNs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).endNs = nowNs();
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer: spans must end in LIFO order");
  }
  stack_.pop_back();
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
  }
  return self;
}

double Tracer::totalSeconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.endNs - s.startNs;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"layer\":\""
        << s.layer << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- per-thread slots -----------------------------------------------------

namespace {

constexpr int kMaxThreadSlots = 64;

std::mutex& slotMutex() {
  static std::mutex mu;
  return mu;
}

// Free slot ids, guarded by slotMutex(). A thread takes one on its first
// counted call and returns it when it exits, so the short-lived threads
// the sandwich spawns per run never exhaust the table.
std::vector<int>& freeSlots() {
  static std::vector<int> ids = [] {
    std::vector<int> v;
    for (int i = kMaxThreadSlots - 1; i >= 0; --i) v.push_back(i);
    return v;
  }();
  return ids;
}

struct ThreadSlot {
  int id = -1;
  ThreadSlot() {
    const std::lock_guard<std::mutex> lock(slotMutex());
    if (freeSlots().empty()) {
      throw std::runtime_error("perfbench: more than 64 concurrent threads");
    }
    id = freeSlots().back();
    freeSlots().pop_back();
  }
  ~ThreadSlot() {
    const std::lock_guard<std::mutex> lock(slotMutex());
    freeSlots().push_back(id);
  }
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
};

int threadSlotId() {
  thread_local ThreadSlot slot;
  return slot.id;
}

}  // namespace

EvalCounters::Totals& EvalCounters::Totals::operator+=(const Totals& o) {
  gainEvals += o.gainEvals;
  gainNs += o.gainNs;
  adds += o.adds;
  addNs += o.addNs;
  valueCalls += o.valueCalls;
  valueNs += o.valueNs;
  return *this;
}

EvalCounters::Totals EvalCounters::Totals::operator-(const Totals& o) const {
  Totals d = *this;
  d.gainEvals -= o.gainEvals;
  d.gainNs -= o.gainNs;
  d.adds -= o.adds;
  d.addNs -= o.addNs;
  d.valueCalls -= o.valueCalls;
  d.valueNs -= o.valueNs;
  return d;
}

EvalCounters::Totals EvalCounters::totals() const {
  Totals sum;
  for (const Slot& s : slots_) sum += s.t;
  return sum;
}

EvalCounters::Slot& EvalCounters::slot() {
  static_assert(kSlots == kMaxThreadSlots);
  return slots_[static_cast<std::size_t>(threadSlotId())];
}

// ---- CountingEvaluator ----------------------------------------------------

double CountingEvaluator::value(const msc::core::ShortcutList& placement) const {
  const std::int64_t t0 = nowNs();
  const double v = fn_->value(placement);
  EvalCounters::Totals& t = counters_->slot().t;
  ++t.valueCalls;
  t.valueNs += static_cast<std::uint64_t>(nowNs() - t0);
  return v;
}

double CountingEvaluator::gainIfAdd(const msc::core::Shortcut& f) const {
  const std::int64_t t0 = nowNs();
  const double g = inner_->gainIfAdd(f);
  EvalCounters::Totals& t = counters_->slot().t;
  ++t.gainEvals;
  t.gainNs += static_cast<std::uint64_t>(nowNs() - t0);
  return g;
}

void CountingEvaluator::add(const msc::core::Shortcut& f) {
  const std::int64_t t0 = nowNs();
  inner_->add(f);
  EvalCounters::Totals& t = counters_->slot().t;
  ++t.adds;
  t.addNs += static_cast<std::uint64_t>(nowNs() - t0);
}

}  // namespace perfbench

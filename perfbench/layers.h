// Benchmark-side instrumentation: everything here wraps calls INTO the
// library from the benchmark's own code; nothing inside src/ is traced.
//
//   * Tracer      — in-memory spans (name, layer, start, end, parent, op id)
//                   recorded on the benchmark's driving thread around each
//                   call into a layer; self time per layer at the end, and
//                   a JSONL dump written when the run finishes.
//   * EvalCounters + CountingEvaluator
//                 — an IncrementalEvaluator/SetFunction decorator that
//                   counts and times gainIfAdd/add/value calls per thread
//                   (one padded slot per thread, no lock on the hot path).
//                   It forwards every call unchanged, so a decorated solve
//                   returns the same placement bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/set_function.h"

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Process user+sys CPU seconds (all threads).
double processCpuSeconds();

/// getrusage max RSS of this process, in MB.
double peakRssMb();

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  /// Starts a new op: later root spans carry this id.
  void beginOp(std::uint64_t op) { op_ = op; }

  int begin(std::string name, std::string layer);
  void end(int id);

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), std::move(layer)) : -1) {}
    ~Scope() {
      if (tracer_) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Self seconds per layer: each span's duration minus the part covered
  /// by its direct children, summed by layer.
  std::map<std::string, double> selfSecondsByLayer() const;
  /// Summed duration of every span with this name.
  double totalSeconds(const std::string& name) const;
  std::size_t spanCount() const noexcept { return spans_.size(); }
  /// One JSON object per line. Returns false when the file can't be written.
  bool writeJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
};

/// Per-layer evaluator counters, one cache-line slot per thread.
class EvalCounters {
 public:
  struct Totals {
    std::uint64_t gainEvals = 0;
    std::uint64_t gainNs = 0;
    std::uint64_t adds = 0;
    std::uint64_t addNs = 0;
    std::uint64_t valueCalls = 0;
    std::uint64_t valueNs = 0;
    Totals& operator+=(const Totals& o);
    Totals operator-(const Totals& o) const;
  };

  /// Sum over slots. Call only while no decorated evaluator is running.
  Totals totals() const;

  struct alignas(64) Slot {
    Totals t;
  };
  /// The calling thread's slot.
  Slot& slot();

 private:
  static constexpr int kSlots = 64;
  std::array<Slot, kSlots> slots_{};
};

class CountingEvaluator final : public msc::core::SetFunction,
                                public msc::core::IncrementalEvaluator {
 public:
  /// `fn` must be the whole-set view of the same evaluator as `inner`.
  CountingEvaluator(msc::core::IncrementalEvaluator& inner,
                    const msc::core::SetFunction& fn, EvalCounters& counters)
      : inner_(&inner), fn_(&fn), counters_(&counters) {}

  double value(const msc::core::ShortcutList& placement) const override;
  std::string name() const override { return fn_->name(); }
  void reset() override { inner_->reset(); }
  double currentValue() const override { return inner_->currentValue(); }
  double gainIfAdd(const msc::core::Shortcut& f) const override;
  void add(const msc::core::Shortcut& f) override;

 private:
  msc::core::IncrementalEvaluator* inner_;
  const msc::core::SetFunction* fn_;
  EvalCounters* counters_;
};

}  // namespace perfbench

// Reference marginal gain for mc::ReliabilityEvaluator::gainIfAdd:
// mcCounts(F ∪ {f}) − mcCounts(F), each scored from scratch by a fresh
// evaluator — reset() plus add()'s BFS propagation, no closed form
// involved — in integer world counts, so the soft objective's gain
// (reachedWorlds delta / W) carries no floating-point round-off.
#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/types.h"
#include "mc/reliability.h"
#include "mc/world_sampler.h"

namespace msc::test::reference {

/// Integer state of a placement under the sampled worlds.
struct McCounts {
  std::int64_t reachedWorlds = 0;  ///< Σ over pairs of reachedWorlds(i)
  int maintained = 0;              ///< σ̂
};

/// Counts of `placement`, scored by a fresh evaluator.
inline McCounts mcCounts(const msc::core::Instance& instance,
                         const msc::mc::WorldSet& worlds,
                         const msc::core::ShortcutList& placement) {
  msc::mc::ReliabilityEvaluator fresh(instance, worlds);
  fresh.evaluate(placement);
  McCounts out;
  for (int i = 0; i < instance.pairCount(); ++i) {
    out.reachedWorlds += static_cast<std::int64_t>(fresh.reachedWorlds(i));
  }
  out.maintained = fresh.maintainedCount();
  return out;
}

}  // namespace msc::test::reference

#include "core/pair_balls.h"

namespace msc::core {

PairBalls::PairBalls(int nodeCount, const std::vector<PairRows>& rows,
                     double dt)
    : words_((rows.size() + 63) / 64) {
  const auto n = static_cast<std::size_t>(nodeCount);
  masks_.assign(n * 2 * words_, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t bit = 1ULL << (i & 63);
    // Side 0 (U) reads the row of u, side 1 (W) the row of w.
    for (std::size_t side = 0; side < 2; ++side) {
      const double* row = side == 0 ? rows[i].first : rows[i].second;
      std::uint64_t* word = masks_.data() + side * words_ + (i >> 6);
      for (std::size_t v = 0; v < n; ++v) {
        if (row[v] <= dt) word[v * 2 * words_] |= bit;
      }
    }
  }
}

}  // namespace msc::core

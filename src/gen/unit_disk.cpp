#include "gen/unit_disk.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace msc::gen {

namespace {

// Cells are this much (relative) wider than the radius, so the rounding in
// the distance and cell-index arithmetic can never put a linked pair two
// cells apart (docs/ALGORITHMS.md §19).
constexpr double kCellMargin = 1.0 / 1024.0;

constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();

bool isFinite(const Point& p) { return std::isfinite(p.x) && std::isfinite(p.y); }

}  // namespace

void addUnitDiskEdges(msc::graph::Graph& g, std::span<const Point> positions,
                      double radius,
                      const msc::wireless::DistanceProportionalFailure& failure) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("addUnitDiskEdges: radius must be > 0");
  }
  if (positions.size() != static_cast<std::size_t>(g.nodeCount())) {
    throw std::invalid_argument("addUnitDiskEdges: need one position per node");
  }
  const std::size_t n = positions.size();

  double minX = std::numeric_limits<double>::infinity();
  double minY = minX;
  double maxX = -minX;
  double maxY = -minX;
  for (const Point& p : positions) {
    if (!isFinite(p)) continue;
    minX = std::min(minX, p.x);
    maxX = std::max(maxX, p.x);
    minY = std::min(minY, p.y);
    maxY = std::max(maxY, p.y);
  }
  if (minX > maxX) return;  // no finite position

  // Grid over the bounding box, at most 2n + 16 cells: a radius tiny next
  // to the box widens the cells instead. A box whose extent overflows
  // (or an infinite radius) collapses to one cell.
  const double width = maxX - minX;
  const double height = maxY - minY;
  double cell = radius * (1.0 + kCellMargin);
  std::size_t cols = 1;
  std::size_t rows = 1;
  if (std::isfinite(width) && std::isfinite(height) && std::isfinite(cell)) {
    const double cap = 2.0 * static_cast<double>(n) + 16.0;
    const auto along = [&](double extent) {
      return std::floor(extent / cell) + 1.0;
    };
    while (along(width) * along(height) > cap) cell *= 2.0;
    cols = static_cast<std::size_t>(along(width));
    rows = static_cast<std::size_t>(along(height));
  }
  const auto index = [&](double v, double lo, std::size_t count) {
    if (count == 1) return std::size_t{0};
    return std::min(static_cast<std::size_t>((v - lo) / cell), count - 1);
  };

  // Counting sort by cell; members of a cell stay in ascending node order.
  std::vector<std::size_t> cellOf(n, kNoCell);
  std::vector<std::size_t> start(cols * rows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = positions[i];
    if (!isFinite(p)) continue;
    cellOf[i] = index(p.y, minY, rows) * cols + index(p.x, minX, cols);
    ++start[cellOf[i] + 1];
  }
  for (std::size_t c = 0; c + 1 < start.size(); ++c) start[c + 1] += start[c];
  std::vector<msc::graph::NodeId> members(start.back());
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (cellOf[i] != kNoCell) {
        members[cursor[cellOf[i]]++] = static_cast<msc::graph::NodeId>(i);
      }
    }
  }

  std::vector<msc::graph::NodeId> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (cellOf[i] == kNoCell) continue;
    const auto self = static_cast<msc::graph::NodeId>(i);
    const std::size_t cx = cellOf[i] % cols;
    const std::size_t cy = cellOf[i] / cols;
    candidates.clear();
    for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= std::min(cy + 1, rows - 1);
         ++y) {
      for (std::size_t x = cx > 0 ? cx - 1 : 0;
           x <= std::min(cx + 1, cols - 1); ++x) {
        const auto first = members.begin() +
                           static_cast<std::ptrdiff_t>(start[y * cols + x]);
        const auto last = members.begin() +
                          static_cast<std::ptrdiff_t>(start[y * cols + x + 1]);
        candidates.insert(candidates.end(), std::upper_bound(first, last, self),
                          last);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const msc::graph::NodeId j : candidates) {
      const double d =
          euclidean(positions[i], positions[static_cast<std::size_t>(j)]);
      if (d < radius) g.addEdge(self, j, failure.lengthAt(d));
    }
  }
}

}  // namespace msc::gen

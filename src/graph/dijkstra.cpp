#include "graph/dijkstra.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace msc::graph {

namespace {

// (distance, node) min-heap entry; stale entries are skipped on pop.
using HeapEntry = std::pair<double, NodeId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

// One run's dijkstra.* counters (docs/ALGORITHMS.md §9).
void countRun(std::uint64_t pops, std::uint64_t settled) {
  if (msc::obs::enabled()) {
    static auto& cRuns = msc::obs::counter("dijkstra.runs");
    static auto& cPops = msc::obs::counter("dijkstra.heap_pops");
    static auto& cSettled = msc::obs::counter("dijkstra.settled");
    cRuns.add(1);
    cPops.add(pops);
    cSettled.add(settled);
  }
}

ShortestPathTree run(const Graph& g, NodeId source, double limit,
                     NodeId target) {
  g.checkNode(source);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  ShortestPathTree tree;
  tree.dist.assign(n, kInfDist);
  tree.parent.assign(n, -1);
  tree.dist[static_cast<std::size_t>(source)] = 0.0;

  MinHeap heap;
  heap.push({0.0, source});
  std::uint64_t pops = 0;
  std::uint64_t settled = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    ++pops;
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale
    ++settled;
    if (target >= 0 && u == target) break;
    for (const Arc& arc : g.neighbors(u)) {
      const double nd = d + arc.length;
      if (nd > limit) continue;
      if (nd < tree.dist[static_cast<std::size_t>(arc.to)]) {
        tree.dist[static_cast<std::size_t>(arc.to)] = nd;
        tree.parent[static_cast<std::size_t>(arc.to)] = u;
        heap.push({nd, arc.to});
      }
    }
  }
  countRun(pops, settled);
  return tree;
}

// Indexed 4-ary min-heap of node ids keyed by the row being built, with
// decrease-key. slot_[v] is v's index in heap_ while v is queued;
// dijkstraRow only reads it for queued nodes, so the scratch is never
// cleared between runs. Ids alone (no cached keys) keep the heap small.
class RowHeap {
 public:
  void reset(std::span<const double> keys) {
    keys_ = keys.data();
    heap_.clear();
    if (slot_.size() < keys.size()) slot_.resize(keys.size());
  }
  bool empty() const noexcept { return heap_.empty(); }

  void push(NodeId v) {
    heap_.push_back(v);
    siftUp(heap_.size() - 1);
  }

  /// Restores the order after v's key went down.
  void decreased(NodeId v) { siftUp(slot_[static_cast<std::size_t>(v)]); }

  NodeId pop() {
    const NodeId top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0);
    return top;
  }

 private:
  double key(NodeId v) const { return keys_[static_cast<std::size_t>(v)]; }

  void place(std::size_t i, NodeId v) {
    heap_[i] = v;
    slot_[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(i);
  }

  void siftUp(std::size_t i) {
    const NodeId v = heap_[i];
    const double k = key(v);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(k < key(heap_[parent]))) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }

  void siftDown(std::size_t i) {
    const NodeId v = heap_[i];
    const double k = key(v);
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= size) break;
      std::size_t best = first;
      double bestKey = key(heap_[first]);
      const std::size_t last = std::min(first + 4, size);
      for (std::size_t c = first + 1; c < last; ++c) {
        const double ck = key(heap_[c]);
        if (ck < bestKey) {
          best = c;
          bestKey = ck;
        }
      }
      if (!(bestKey < k)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, v);
  }

  const double* keys_ = nullptr;
  std::vector<NodeId> heap_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace

void dijkstraRow(const Graph& g, NodeId source, std::span<double> dist) {
  g.checkNode(source);
  if (dist.size() != static_cast<std::size_t>(g.nodeCount())) {
    throw std::invalid_argument("dijkstraRow: row size != node count");
  }
  std::fill(dist.begin(), dist.end(), kInfDist);
  thread_local RowHeap heap;
  heap.reset(dist);
  dist[static_cast<std::size_t>(source)] = 0.0;
  heap.push(source);
  std::uint64_t settled = 0;
  // A queued node has a finite dist; a settled one can never improve
  // (lengths are >= 0), so finite-and-improved means "queued".
  while (!heap.empty()) {
    const NodeId u = heap.pop();
    ++settled;
    const double d = dist[static_cast<std::size_t>(u)];
    for (const Arc& arc : g.neighbors(u)) {
      const double nd = d + arc.length;
      double& dv = dist[static_cast<std::size_t>(arc.to)];
      if (nd < dv) {
        const bool queued = dv != kInfDist;
        dv = nd;
        if (queued) {
          heap.decreased(arc.to);
        } else {
          heap.push(arc.to);
        }
      }
    }
  }
  countRun(settled, settled);
}

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  return run(g, source, kInfDist, -1);
}

ShortestPathTree dijkstraBounded(const Graph& g, NodeId source, double limit) {
  if (limit < 0.0) throw std::invalid_argument("dijkstraBounded: limit < 0");
  return run(g, source, limit, -1);
}

double dijkstraDistance(const Graph& g, NodeId source, NodeId target) {
  g.checkNode(target);
  const auto tree = run(g, source, kInfDist, target);
  return tree.dist[static_cast<std::size_t>(target)];
}

std::optional<std::vector<NodeId>> extractPath(const ShortestPathTree& tree,
                                               NodeId source, NodeId target) {
  const auto n = tree.dist.size();
  if (source < 0 || target < 0 || static_cast<std::size_t>(source) >= n ||
      static_cast<std::size_t>(target) >= n) {
    throw std::out_of_range("extractPath: node index out of range");
  }
  if (tree.dist[static_cast<std::size_t>(target)] == kInfDist) {
    return std::nullopt;
  }
  std::vector<NodeId> path;
  for (NodeId v = target; v != -1; v = tree.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  if (path.back() != source) return std::nullopt;
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace msc::graph

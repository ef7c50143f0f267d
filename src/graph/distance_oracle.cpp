#include "graph/distance_oracle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>

#include "graph/dijkstra.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/parallel.h"

namespace msc::graph {

namespace {

constexpr std::size_t kObjectOverhead = 64;

std::int64_t steadyNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Always-on histogram of one Dijkstra row build; shared by both the
/// single-row and the prefetch-burst paths.
void recordRowBuild(std::int64_t ns) {
  static auto& h = msc::obs::histogram("oracle.row_build_seconds");
  h.record(static_cast<double>(ns) * 1e-9);
}

}  // namespace

std::size_t oracleRowBytes(std::size_t n) noexcept {
  return n * sizeof(double) + kObjectOverhead;
}

std::size_t defaultOracleRowBudgetBytes() noexcept {
  const std::int64_t mb = util::envInt("MSC_ORACLE_ROWS_MB", 0);
  if (mb <= 0) return 0;
  return static_cast<std::size_t>(mb) * 1024 * 1024;
}

const char* distanceModeName(DistanceMode mode) noexcept {
  switch (mode) {
    case DistanceMode::Auto:
      return "auto";
    case DistanceMode::Dense:
      return "dense";
    case DistanceMode::PairCentric:
      return "pair_centric";
  }
  return "auto";
}

std::optional<DistanceMode> parseDistanceMode(std::string_view name) noexcept {
  if (name == "auto") return DistanceMode::Auto;
  if (name == "dense") return DistanceMode::Dense;
  if (name == "pair_centric") return DistanceMode::PairCentric;
  return std::nullopt;
}

// ------------------------------------------------------ DistanceOracle ----

DistanceOracle::DistanceOracle(std::shared_ptr<const Graph> graph,
                               Config config)
    : graph_(std::move(graph)), budget_(config.rowBudgetBytes) {
  if (!graph_) {
    throw std::invalid_argument("DistanceOracle: null graph");
  }
  if (config.landmarks < 0) {
    throw std::invalid_argument("DistanceOracle: negative landmark count");
  }
  selectLandmarks(std::min(config.landmarks, graph_->nodeCount()));
  if (!landmarkIds_.empty()) {
    // Value-initialized: per-landmark usefulness counts start at 0.
    landmarkUseful_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(landmarkIds_.size());
  }
}

DistanceOracle::DistanceOracle(std::shared_ptr<const Graph> graph,
                               AllRowsResident mode)
    : graph_(std::move(graph)), allRows_(true) {
  if (!graph_) {
    throw std::invalid_argument("DistanceOracle: null graph");
  }
  matrix_ = allPairsDistances(*graph_, mode.threads);
  bytes_.store(matrix_.rows() * matrix_.cols() * sizeof(double) +
                   kObjectOverhead,
               std::memory_order_relaxed);
}

void DistanceOracle::checkNode(NodeId v) const {
  if (v < 0 || v >= nodeCount()) {
    throw std::out_of_range("DistanceOracle: node index out of range");
  }
}

util::Matrix<double> DistanceOracle::distancesToTerminals(
    std::span<const NodeId> terminals, int threads) const {
  terminalBatches_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().terminalBatches.fetch_add(1, std::memory_order_relaxed);
  }
  prefetchRows(terminals, threads);
  const auto n = static_cast<std::size_t>(nodeCount());
  util::Matrix<double> out(terminals.size(), n);
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    const auto row = distancesFrom(terminals[i]);
    std::copy(row.begin(), row.end(), out.row(i));
  }
  return out;
}

void DistanceOracle::selectLandmarks(int count) {
  const int n = graph_->nodeCount();
  if (count <= 0 || n == 0) return;
  // Deterministic farthest-point sweep: start at node 0, then repeatedly
  // take the node farthest from the chosen set (unreachable counts as
  // farther than any finite distance, so every component gets a landmark
  // before any component gets a second one); ties break to the lowest id.
  std::vector<double> distToSet(static_cast<std::size_t>(n), kInfDist);
  NodeId next = 0;
  for (int pick = 0; pick < count; ++pick) {
    std::vector<double> row(static_cast<std::size_t>(n));
    dijkstraRow(*graph_, next, row);
    for (std::size_t v = 0; v < row.size(); ++v) {
      distToSet[v] = std::min(distToSet[v], row[v]);
    }
    landmarkIds_.push_back(next);
    Row& stored = storeLocked(next, std::move(row));
    stored.pinned = true;
    landmarkRows_.push_back(stored.data);
    if (pick + 1 == count) break;
    next = -1;
    double best = -1.0;
    for (NodeId v = 0; v < n; ++v) {
      const double d = distToSet[static_cast<std::size_t>(v)];
      if (d > best) {
        best = d;
        next = v;
      }
    }
    if (next < 0 || best == 0.0) break;  // n distinct nodes exhausted
  }
}

std::vector<double> DistanceOracle::buildRow(NodeId v) const {
  const std::int64_t t0 = steadyNowNs();
  std::vector<double> dist(static_cast<std::size_t>(graph_->nodeCount()));
  dijkstraRow(*graph_, v, dist);
  const std::int64_t dt = steadyNowNs() - t0;
  rowBuilds_.fetch_add(1, std::memory_order_relaxed);
  rowBuildNs_.fetch_add(static_cast<std::uint64_t>(dt),
                        std::memory_order_relaxed);
  recordRowBuild(dt);
  if (auto* ctx = obs::currentRequest()) {
    auto& usage = ctx->oracle();
    usage.rowBuilds.fetch_add(1, std::memory_order_relaxed);
    usage.rowBuildNs.fetch_add(dt, std::memory_order_relaxed);
  }
  return dist;
}

DistanceOracle::Row& DistanceOracle::storeLocked(
    NodeId v, std::vector<double>&& dist) const {
  const auto [it, inserted] = rows_.emplace(v, Row{});
  if (inserted) {
    it->second.data =
        std::make_shared<const std::vector<double>>(std::move(dist));
    const std::size_t bytes = oracleRowBytes(it->second.data->size());
    rowCacheBytes_ += bytes;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  it->second.touch = ++touchSeq_;
  return it->second;
}

void DistanceOracle::enforceBudgetLocked(NodeId protect) const {
  if (budget_ == 0) return;
  const bool leased = leases_.load(std::memory_order_acquire) > 0;
  std::uint64_t evicted = 0;
  while (rowCacheBytes_ > budget_) {
    // LRU victim among evictable rows (not pinned, not the row the caller
    // just inserted/returned). Linear scan: under a budget the map holds
    // O(budget / rowBytes) entries, so this stays small by construction.
    auto victim = rows_.end();
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      if (it->second.pinned || it->first == protect) continue;
      if (victim == rows_.end() || it->second.touch < victim->second.touch) {
        victim = it;
      }
    }
    if (victim == rows_.end()) break;  // only pinned/protected rows left
    const std::size_t bytes = oracleRowBytes(victim->second.data->size());
    rowCacheBytes_ -= bytes;
    if (leased) {
      // Spans handed out under a lease may point into this row: park it
      // (still counted resident) until the last lease is released.
      retired_.push_back(std::move(victim->second.data));
    } else {
      bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    }
    rows_.erase(victim);
    ++evicted;
  }
  if (evicted == 0) return;
  rowsEvicted_.fetch_add(evicted, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().rowsEvicted.fetch_add(evicted, std::memory_order_relaxed);
  }
  if (msc::obs::enabled()) {
    static auto& cEvict = msc::obs::counter("oracle.row_evictions");
    cEvict.add(evicted);
  }
  if (obs::trace::enabled()) {
    obs::trace::counter("oracle.rows_resident",
                        static_cast<double>(rows_.size()));
  }
}

std::shared_ptr<void> DistanceOracle::acquireRowLease() const {
  if (allRows_) return nullptr;  // nothing is ever evicted
  leases_.fetch_add(1, std::memory_order_acq_rel);
  auto* self = const_cast<DistanceOracle*>(this);
  return std::shared_ptr<void>(static_cast<void*>(self), [](void* p) {
    static_cast<const DistanceOracle*>(p)->releaseRowLease();
  });
}

void DistanceOracle::releaseRowLease() const {
  if (leases_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last lease gone: free the parked rows. Re-check under the lock — a new
  // lease acquired meanwhile keeps them conservatively.
  std::vector<std::shared_ptr<const std::vector<double>>> drop;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (leases_.load(std::memory_order_acquire) == 0 && !retired_.empty()) {
      drop.swap(retired_);
      for (const auto& row : drop) {
        bytes_.fetch_sub(oracleRowBytes(row->size()),
                         std::memory_order_relaxed);
      }
    }
  }
}

double DistanceOracle::distance(NodeId x, NodeId y) const {
  checkNode(x);
  checkNode(y);
  pointQueries_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().pointQueries.fetch_add(1, std::memory_order_relaxed);
  }
  if (allRows_) {
    return matrix_(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
  }
  if (x == y) return 0.0;
  const NodeId s = std::min(x, y);
  const NodeId t = std::max(x, y);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = rows_.find(s); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      return (*it->second.data)[static_cast<std::size_t>(t)];
    }
    if (const auto it = rows_.find(t); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      return (*it->second.data)[static_cast<std::size_t>(s)];
    }
  }
  if (msc::obs::enabled()) {
    static auto& cAlt = msc::obs::counter("oracle.alt_queries");
    cAlt.add(1);
  }
  return altPointQuery(s, t);
}

std::span<const double> DistanceOracle::distancesFrom(NodeId v) const {
  checkNode(v);
  rowQueries_.fetch_add(1, std::memory_order_relaxed);
  auto* ctx = obs::currentRequest();
  if (ctx) {
    ctx->oracle().rowQueries.fetch_add(1, std::memory_order_relaxed);
  }
  if (allRows_) {
    // Every resident row is a hit; stats() derives the oracle's own count.
    if (ctx) ctx->oracle().rowHits.fetch_add(1, std::memory_order_relaxed);
    return {matrix_.row(static_cast<std::size_t>(v)), matrix_.cols()};
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = rows_.find(v); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      rowHits_.fetch_add(1, std::memory_order_relaxed);
      if (ctx) ctx->oracle().rowHits.fetch_add(1, std::memory_order_relaxed);
      return *it->second.data;
    }
  }
  if (msc::obs::enabled()) {
    static auto& cRows = msc::obs::counter("oracle.row_builds");
    cRows.add(1);
  }
  auto dist = buildRow(v);
  const std::lock_guard<std::mutex> lock(mu_);
  const Row& row = storeLocked(v, std::move(dist));
  enforceBudgetLocked(v);
  return *row.data;
}

void DistanceOracle::prefetchRows(std::span<const NodeId> sources,
                                  int threads) const {
  if (allRows_) {
    for (const NodeId v : sources) checkNode(v);
    return;
  }
  std::vector<NodeId> need;
  need.reserve(sources.size());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const NodeId v : sources) {
      checkNode(v);
      if (!rows_.contains(v)) need.push_back(v);
    }
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  if (need.empty()) return;
  if (msc::obs::enabled()) {
    static auto& cRows = msc::obs::counter("oracle.row_builds");
    cRows.add(need.size());
  }
  std::vector<std::vector<double>> computed(need.size());
  std::vector<std::int64_t> buildNs(need.size(), 0);
  msc::util::parallelForThreads(
      threads, 0, need.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t t0 = steadyNowNs();
          computed[i].resize(static_cast<std::size_t>(graph_->nodeCount()));
          dijkstraRow(*graph_, need[i], computed[i]);
          buildNs[i] = steadyNowNs() - t0;
        }
      });
  std::int64_t totalNs = 0;
  for (std::size_t i = 0; i < need.size(); ++i) {
    recordRowBuild(buildNs[i]);
    totalNs += buildNs[i];
  }
  rowBuilds_.fetch_add(need.size(), std::memory_order_relaxed);
  rowBuildNs_.fetch_add(static_cast<std::uint64_t>(totalNs),
                        std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    auto& usage = ctx->oracle();
    usage.rowBuilds.fetch_add(need.size(), std::memory_order_relaxed);
    usage.rowBuildNs.fetch_add(totalNs, std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < need.size(); ++i) {
    storeLocked(need[i], std::move(computed[i]));
  }
  enforceBudgetLocked(need.back());
}

double DistanceOracle::altPointQuery(NodeId s, NodeId t) const {
  altQueries_.fetch_add(1, std::memory_order_relaxed);
  auto* ctx = obs::currentRequest();
  if (ctx) {
    ctx->oracle().altQueries.fetch_add(1, std::memory_order_relaxed);
  }
  // Landmark usefulness: which landmark supplies the strongest s-to-t
  // bound. One pass per query, outside the search loop.
  if (landmarkUseful_) {
    int best = -1;
    double bestVal = -1.0;
    for (std::size_t i = 0; i < landmarkRows_.size(); ++i) {
      const auto& row = *landmarkRows_[i];
      const double dv = row[static_cast<std::size_t>(s)];
      const double dt = row[static_cast<std::size_t>(t)];
      if (dv == kInfDist || dt == kInfDist) {
        if (dv != dt) {  // proves disconnection — maximally useful
          best = static_cast<int>(i);
          break;
        }
        continue;
      }
      const double b = std::abs(dv - dt);
      if (b > bestVal) {
        bestVal = b;
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      landmarkUseful_[best].fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::size_t settledCount = 0;
  double bound = 0.0;
  const double result = altSearch(s, t, settledCount, bound);
  const int n = graph_->nodeCount();
  const double ratio =
      n > 0 ? static_cast<double>(settledCount) / static_cast<double>(n) : 0.0;
  {
    static auto& hSettled = msc::obs::histogram("oracle.alt_settled_ratio");
    hSettled.record(ratio);
  }
  if (ctx) ctx->oracle().recordAltSettledRatio(ratio);
  // Heuristic tightness h(s,t)/d(s,t): 1.0 means the landmark bound was
  // exact, near 0 means the landmarks said nothing about this pair.
  if (result > 0.0 && result < kInfDist && bound < kInfDist) {
    static auto& hTight = msc::obs::histogram("oracle.alt_tightness");
    hTight.record(bound / result);
  }
  return result;
}

double DistanceOracle::altSearch(NodeId s, NodeId t,
                                 std::size_t& settledOut,
                                 double& boundOut) const {
  const Graph& g = *graph_;
  const auto n = static_cast<std::size_t>(g.nodeCount());
  // ALT lower bound on d(v, t): the landmark triangle inequality gives
  // |d(l, v) - d(l, t)| <= d(v, t). When exactly one of the two is
  // infinite, v and t sit in different components, so d(v, t) itself is
  // infinite and the node can be pruned outright.
  const auto lowerBound = [&](NodeId v) -> double {
    double best = 0.0;
    for (const auto& row : landmarkRows_) {
      const double dv = (*row)[static_cast<std::size_t>(v)];
      const double dt = (*row)[static_cast<std::size_t>(t)];
      if (dv == kInfDist || dt == kInfDist) {
        if (dv != dt) return kInfDist;
        continue;  // landmark sees neither endpoint: no information
      }
      best = std::max(best, std::abs(dv - dt));
    }
    return best;
  };
  boundOut = lowerBound(s);
  if (boundOut == kInfDist) return kInfDist;

  // A* with a consistent potential settles nodes in (g + h) order but
  // computes the same final g values as plain Dijkstra (every improving
  // predecessor still settles first), so the result is bit-identical to
  // the corresponding distancesFrom(s) entry.
  std::vector<double> dist(n, kInfDist);
  std::vector<std::uint8_t> settled(n, 0);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(s)] = 0.0;
  heap.push({boundOut, s});
  while (!heap.empty()) {
    const auto [f, u] = heap.top();
    heap.pop();
    if (settled[static_cast<std::size_t>(u)]) continue;
    settled[static_cast<std::size_t>(u)] = 1;
    ++settledOut;
    if (u == t) return dist[static_cast<std::size_t>(u)];
    const double du = dist[static_cast<std::size_t>(u)];
    for (const Arc& arc : g.neighbors(u)) {
      const double nd = du + arc.length;
      if (nd < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = nd;
        const double h = lowerBound(arc.to);
        if (h == kInfDist) continue;  // cannot reach t; prune
        heap.push({nd + h, arc.to});
      }
    }
  }
  return kInfDist;
}

std::size_t DistanceOracle::cachedRowCount() const {
  if (allRows_) return matrix_.rows();
  const std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

OracleStats DistanceOracle::stats() const {
  OracleStats s;
  s.pointQueries = pointQueries_.load(std::memory_order_relaxed);
  s.rowQueries = rowQueries_.load(std::memory_order_relaxed);
  s.terminalBatches = terminalBatches_.load(std::memory_order_relaxed);
  s.rowBuilds = rowBuilds_.load(std::memory_order_relaxed);
  // Every resident row query is served from the matrix.
  s.rowHits =
      allRows_ ? s.rowQueries : rowHits_.load(std::memory_order_relaxed);
  s.altQueries = altQueries_.load(std::memory_order_relaxed);
  s.rowsEvicted = rowsEvicted_.load(std::memory_order_relaxed);
  s.rowBuildNs = rowBuildNs_.load(std::memory_order_relaxed);
  s.rowsResident = cachedRowCount();
  s.residentBytes = residentBytes();
  if (landmarkUseful_) {
    s.landmarkUseful.reserve(landmarkIds_.size());
    for (std::size_t i = 0; i < landmarkIds_.size(); ++i) {
      s.landmarkUseful.push_back(
          landmarkUseful_[i].load(std::memory_order_relaxed));
    }
  }
  return s;
}

// -------------------------------------------------------------- factory ----

std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode mode, int landmarks,
    int threads, std::size_t rowBudgetBytes) {
  if (!graph) {
    throw std::invalid_argument("makeDistanceOracle: null graph");
  }
  const bool allRows =
      mode == DistanceMode::Dense ||
      (mode == DistanceMode::Auto && graph->nodeCount() <= kDenseAutoNodeLimit);
  if (allRows) {
    return std::make_shared<const DistanceOracle>(
        std::move(graph), DistanceOracle::AllRowsResident{.threads = threads});
  }
  return std::make_shared<const DistanceOracle>(
      std::move(graph),
      DistanceOracle::Config{.landmarks = landmarks,
                             .rowBudgetBytes = rowBudgetBytes});
}

}  // namespace msc::graph

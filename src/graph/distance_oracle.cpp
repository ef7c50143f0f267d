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

void DistanceOracle::checkNode(NodeId v) const {
  if (v < 0 || v >= nodeCount()) {
    throw std::out_of_range("DistanceOracle: node index out of range");
  }
}

void DistanceOracle::prefetchRows(std::span<const NodeId> sources,
                                  int /*threads*/) const {
  for (const NodeId v : sources) checkNode(v);
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

OracleStats DistanceOracle::stats() const {
  OracleStats s;
  s.terminalBatches = terminalBatches_.load(std::memory_order_relaxed);
  s.residentBytes = residentBytes();
  return s;
}

// --------------------------------------------------- DenseMatrixOracle ----

DenseMatrixOracle::DenseMatrixOracle(
    std::shared_ptr<const DistanceMatrix> matrix)
    : owned_(std::move(matrix)), matrix_(owned_.get()) {
  if (!matrix_) {
    throw std::invalid_argument("DenseMatrixOracle: null matrix");
  }
  if (matrix_->rows() != matrix_->cols()) {
    throw std::invalid_argument("DenseMatrixOracle: matrix must be square");
  }
  initTouched();
}

DenseMatrixOracle::DenseMatrixOracle(const DistanceMatrix& matrix)
    : matrix_(&matrix) {
  if (matrix_->rows() != matrix_->cols()) {
    throw std::invalid_argument("DenseMatrixOracle: matrix must be square");
  }
  initTouched();
}

void DenseMatrixOracle::initTouched() {
  // Value-initialized array: every flag starts 0.
  rowTouched_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(matrix_->rows());
}

std::shared_ptr<DenseMatrixOracle> DenseMatrixOracle::build(const Graph& g,
                                                            int threads) {
  return std::make_shared<DenseMatrixOracle>(
      std::make_shared<const DistanceMatrix>(allPairsDistances(g, threads)));
}

double DenseMatrixOracle::distance(NodeId x, NodeId y) const {
  checkNode(x);
  checkNode(y);
  pointQueries_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().pointQueries.fetch_add(1, std::memory_order_relaxed);
  }
  return (*matrix_)(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
}

std::span<const double> DenseMatrixOracle::distancesFrom(NodeId v) const {
  checkNode(v);
  rowQueries_.fetch_add(1, std::memory_order_relaxed);
  rowTouched_[static_cast<std::size_t>(v)].store(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    auto& usage = ctx->oracle();
    usage.rowQueries.fetch_add(1, std::memory_order_relaxed);
    usage.rowHits.fetch_add(1, std::memory_order_relaxed);
  }
  return {matrix_->row(static_cast<std::size_t>(v)), matrix_->cols()};
}

void DenseMatrixOracle::prefetchRows(std::span<const NodeId> sources,
                                     int /*threads*/) const {
  for (const NodeId v : sources) checkNode(v);  // all rows already resident
}

std::size_t DenseMatrixOracle::residentBytes() const noexcept {
  // A borrowed matrix is charged to whoever owns it (the serve cache
  // already bills its memoized matrices), so only owning oracles report.
  if (!owned_) return 0;
  return matrix_->rows() * matrix_->cols() * sizeof(double) + kObjectOverhead;
}

OracleStats DenseMatrixOracle::stats() const {
  OracleStats s = DistanceOracle::stats();
  s.pointQueries = pointQueries_.load(std::memory_order_relaxed);
  s.rowQueries = rowQueries_.load(std::memory_order_relaxed);
  // Every dense row query is served from the resident matrix.
  s.rowHits = s.rowQueries;
  s.rowsResident = matrix_->rows();
  std::size_t touched = 0;
  for (std::size_t i = 0; i < matrix_->rows(); ++i) {
    touched += rowTouched_[i].load(std::memory_order_relaxed);
  }
  s.rowsTouched = touched;
  return s;
}

// --------------------------------------------------- PairCentricOracle ----

PairCentricOracle::PairCentricOracle(std::shared_ptr<const Graph> graph)
    : PairCentricOracle(std::move(graph), Config{}) {}

PairCentricOracle::PairCentricOracle(std::shared_ptr<const Graph> graph,
                                     Config config)
    : graph_(std::move(graph)),
      budget_(config.rowBudgetBytes) {
  if (!graph_) {
    throw std::invalid_argument("PairCentricOracle: null graph");
  }
  if (config.landmarks < 0) {
    throw std::invalid_argument("PairCentricOracle: negative landmark count");
  }
  rowRequested_.assign(static_cast<std::size_t>(graph_->nodeCount()), 0);
  selectLandmarks(std::min(config.landmarks, graph_->nodeCount()));
  if (!landmarkIds_.empty()) {
    // Value-initialized: per-landmark usefulness counts start at 0.
    landmarkUseful_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(landmarkIds_.size());
  }
}

void PairCentricOracle::selectLandmarks(int count) {
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
    auto data = std::make_shared<const std::vector<double>>(std::move(row));
    const auto [it, inserted] = rows_.emplace(next, Row{});
    if (inserted) {
      it->second.data = data;
      it->second.touch = ++touchSeq_;
      it->second.touchNs = steadyNowNs();
      it->second.pinned = true;
      rowCacheBytes_ += oracleRowBytes(static_cast<std::size_t>(n));
      bytes_.fetch_add(oracleRowBytes(static_cast<std::size_t>(n)),
                       std::memory_order_relaxed);
    }
    landmarkRows_.push_back(it->second.data);
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

void PairCentricOracle::noteRowTouchedLocked(NodeId v) const {
  auto& flag = rowRequested_[static_cast<std::size_t>(v)];
  if (flag == 0) {
    flag = 1;
    ++rowsTouched_;
  }
}

std::vector<double> PairCentricOracle::buildRow(NodeId v) const {
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

void PairCentricOracle::enforceBudgetLocked(NodeId protect) const {
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

std::shared_ptr<void> PairCentricOracle::acquireRowLease() const {
  leases_.fetch_add(1, std::memory_order_acq_rel);
  auto* self = const_cast<PairCentricOracle*>(this);
  return std::shared_ptr<void>(static_cast<void*>(self), [](void* p) {
    static_cast<const PairCentricOracle*>(p)->releaseRowLease();
  });
}

void PairCentricOracle::releaseRowLease() const {
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

double PairCentricOracle::distance(NodeId x, NodeId y) const {
  checkNode(x);
  checkNode(y);
  pointQueries_.fetch_add(1, std::memory_order_relaxed);
  if (auto* ctx = obs::currentRequest()) {
    ctx->oracle().pointQueries.fetch_add(1, std::memory_order_relaxed);
  }
  if (x == y) return 0.0;
  const NodeId s = std::min(x, y);
  const NodeId t = std::max(x, y);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = rows_.find(s); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      it->second.touchNs = steadyNowNs();
      return (*it->second.data)[static_cast<std::size_t>(t)];
    }
    if (const auto it = rows_.find(t); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      it->second.touchNs = steadyNowNs();
      return (*it->second.data)[static_cast<std::size_t>(s)];
    }
  }
  if (msc::obs::enabled()) {
    static auto& cAlt = msc::obs::counter("oracle.alt_queries");
    cAlt.add(1);
  }
  return altPointQuery(s, t);
}

std::span<const double> PairCentricOracle::distancesFrom(NodeId v) const {
  checkNode(v);
  rowQueries_.fetch_add(1, std::memory_order_relaxed);
  auto* ctx = obs::currentRequest();
  if (ctx) {
    ctx->oracle().rowQueries.fetch_add(1, std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    noteRowTouchedLocked(v);
    if (const auto it = rows_.find(v); it != rows_.end()) {
      it->second.touch = ++touchSeq_;
      it->second.touchNs = steadyNowNs();
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
  const auto [it, inserted] = rows_.emplace(v, Row{});
  if (inserted) {
    it->second.data =
        std::make_shared<const std::vector<double>>(std::move(dist));
    rowCacheBytes_ += oracleRowBytes(it->second.data->size());
    bytes_.fetch_add(oracleRowBytes(it->second.data->size()),
                     std::memory_order_relaxed);
  }
  it->second.touch = ++touchSeq_;
  it->second.touchNs = steadyNowNs();
  enforceBudgetLocked(v);
  return *it->second.data;
}

void PairCentricOracle::prefetchRows(std::span<const NodeId> sources,
                                     int threads) const {
  std::vector<NodeId> need;
  need.reserve(sources.size());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const NodeId v : sources) {
      checkNode(v);
      noteRowTouchedLocked(v);
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
    const auto [it, inserted] = rows_.emplace(need[i], Row{});
    if (inserted) {
      it->second.data =
          std::make_shared<const std::vector<double>>(std::move(computed[i]));
      rowCacheBytes_ += oracleRowBytes(it->second.data->size());
      bytes_.fetch_add(oracleRowBytes(it->second.data->size()),
                       std::memory_order_relaxed);
    }
    it->second.touch = ++touchSeq_;
    it->second.touchNs = steadyNowNs();
  }
  enforceBudgetLocked(need.empty() ? -1 : need.back());
}

double PairCentricOracle::altPointQuery(NodeId s, NodeId t) const {
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

double PairCentricOracle::altSearch(NodeId s, NodeId t,
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

std::size_t PairCentricOracle::cachedRowCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

OracleStats PairCentricOracle::stats() const {
  OracleStats s = DistanceOracle::stats();
  s.pointQueries = pointQueries_.load(std::memory_order_relaxed);
  s.rowQueries = rowQueries_.load(std::memory_order_relaxed);
  s.rowBuilds = rowBuilds_.load(std::memory_order_relaxed);
  s.rowHits = rowHits_.load(std::memory_order_relaxed);
  s.altQueries = altQueries_.load(std::memory_order_relaxed);
  s.rowsEvicted = rowsEvicted_.load(std::memory_order_relaxed);
  s.rowBuildNs = rowBuildNs_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.rowsResident = rows_.size();
    s.rowsTouched = rowsTouched_;
    const std::int64_t now = steadyNowNs();
    std::int64_t oldest = 0;
    for (const auto& [id, row] : rows_) {
      if (row.pinned) continue;
      oldest = std::max(oldest, now - row.touchNs);
    }
    s.oldestRowAgeNs = oldest;
  }
  if (landmarkUseful_) {
    s.landmarkUseful.reserve(landmarkIds_.size());
    for (std::size_t i = 0; i < landmarkIds_.size(); ++i) {
      s.landmarkUseful.push_back(
          landmarkUseful_[i].load(std::memory_order_relaxed));
    }
  }
  return s;
}

// ---------------------------------------------- measured auto-mode policy --

namespace {

unsigned long long denseMatrixBytes(int n) noexcept {
  const auto un = static_cast<unsigned long long>(n);
  return un * un * sizeof(double);
}

}  // namespace

AutoPolicyDecision autoInitialBackend(int nodeCount) {
  AutoPolicyDecision d;
  const auto denseBytes = denseMatrixBytes(nodeCount);
  if (nodeCount <= kDenseAutoNodeLimit) {
    d.backend = DistanceMode::Dense;
    d.reason = "node_count=" + std::to_string(nodeCount) +
               " <= dense_auto_limit=" + std::to_string(kDenseAutoNodeLimit) +
               ": dense matrix (" + std::to_string(denseBytes) +
               " bytes) is cheap and O(1) per query";
  } else {
    d.backend = DistanceMode::PairCentric;
    d.reason = "node_count=" + std::to_string(nodeCount) +
               " > dense_auto_limit=" + std::to_string(kDenseAutoNodeLimit) +
               ": dense matrix would be " + std::to_string(denseBytes) +
               " bytes";
  }
  return d;
}

AutoPolicyDecision autoRevalidateBackend(int nodeCount,
                                         std::string_view currentBackend,
                                         const OracleStats& measured) {
  AutoPolicyDecision d;
  const auto denseBytes = denseMatrixBytes(nodeCount);
  if (currentBackend == "pair_centric") {
    d.backend = DistanceMode::PairCentric;
    const auto resident =
        static_cast<unsigned long long>(measured.residentBytes);
    if (denseBytes > 0 && resident * 2 > denseBytes) {
      d.backend = DistanceMode::Dense;
      d.switchBackend = true;
      d.reason = "resident_row_bytes=" + std::to_string(resident) +
                 " > dense_matrix_bytes/2=" + std::to_string(denseBytes / 2) +
                 " (rows_touched=" + std::to_string(measured.rowsTouched) +
                 ", point_queries=" + std::to_string(measured.pointQueries) +
                 ", row_queries=" + std::to_string(measured.rowQueries) +
                 "): the lazy row cache stopped paying for itself";
    } else {
      d.reason = "resident_row_bytes=" + std::to_string(resident) +
                 " <= dense_matrix_bytes/2=" + std::to_string(denseBytes / 2) +
                 ": row cache still pays for itself";
    }
    return d;
  }
  // Dense backend: predict the pair-centric footprint from the rows the
  // workload actually touched (plus the 8 default landmark rows).
  d.backend = DistanceMode::Dense;
  const auto predicted = static_cast<unsigned long long>(
      (measured.rowsTouched + 8) *
      oracleRowBytes(static_cast<std::size_t>(nodeCount)));
  const std::uint64_t rowQ = std::max<std::uint64_t>(measured.rowQueries, 1);
  const bool rowDominated = measured.pointQueries <= 4 * rowQ;
  if (nodeCount > kDenseAutoNodeLimit && rowDominated &&
      predicted * 4 <= denseBytes) {
    d.backend = DistanceMode::PairCentric;
    d.switchBackend = true;
    d.reason = "rows_touched=" + std::to_string(measured.rowsTouched) +
               " of n=" + std::to_string(nodeCount) +
               " predicts pair_centric_bytes=" + std::to_string(predicted) +
               " <= dense_matrix_bytes/4=" + std::to_string(denseBytes / 4) +
               " with row-dominated queries (point_queries=" +
               std::to_string(measured.pointQueries) +
               ", row_queries=" + std::to_string(measured.rowQueries) + ")";
  } else {
    d.reason = "keep dense: rows_touched=" +
               std::to_string(measured.rowsTouched) +
               " predicts pair_centric_bytes=" + std::to_string(predicted) +
               " vs dense_matrix_bytes/4=" + std::to_string(denseBytes / 4) +
               ", point_queries=" + std::to_string(measured.pointQueries) +
               ", row_queries=" + std::to_string(measured.rowQueries) +
               (nodeCount <= kDenseAutoNodeLimit
                    ? " (n within the dense auto limit)"
                    : "");
  }
  return d;
}

// -------------------------------------------------------------- factory ----

std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode mode, int landmarks,
    int threads, std::size_t rowBudgetBytes) {
  if (!graph) {
    throw std::invalid_argument("makeDistanceOracle: null graph");
  }
  const bool dense =
      mode == DistanceMode::Dense ||
      (mode == DistanceMode::Auto && graph->nodeCount() <= kDenseAutoNodeLimit);
  if (dense) {
    return DenseMatrixOracle::build(*graph, threads);
  }
  return std::make_shared<const PairCentricOracle>(
      std::move(graph),
      PairCentricOracle::Config{.landmarks = landmarks,
                                .rowBudgetBytes = rowBudgetBytes});
}

}  // namespace msc::graph

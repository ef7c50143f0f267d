// Pair-centric distance API: the abstraction that breaks the O(n^2) wall.
//
// Every MSC evaluator consumes base-graph shortest-path distances, but none
// of them needs all n^2 of them: sigma/mu/nu only ever read distances from
// the m social-pair endpoints (and the endpoints of placed shortcuts) to
// the rest of the graph. DistanceOracle is the seam that makes the storage
// decision pluggable:
//
//   * DenseMatrixOracle — wraps today's APSP matrix. Bit-identical to the
//     historical dense path; right for small n where O(n^2) doubles fit.
//   * PairCentricOracle — stores only the rows actually requested
//     (|terminals| x n doubles), computing each with one Dijkstra on
//     demand, plus ALT landmark rows for point-to-point queries that do
//     not deserve a full row.
//
// Numerical contract: a dense matrix is symmetrized across the two sweep
// directions (see allPairsDistances), while a pair-centric row is the raw
// one-directional Dijkstra result. The two can differ in the last ulp on
// paths of >= 3 edges (floating-point addition is not associative). All
// threshold-counting objectives (sigma/mu/nu, with or without per-pair
// weights) are sums over comparisons d <= d_t, so the backends
// agree exactly unless a distance lands within one ulp of the threshold —
// the property suite in tests/test_distance_oracle.cpp sweeps every
// generator to confirm the values coincide in practice.
//
// Telemetry (docs/ALGORITHMS.md §16): every oracle self-measures its query
// mix — point vs row vs terminal-batch queries, lazy-row builds vs hits,
// ALT effectiveness, evictions — through relaxed atomics that are always
// on (the counts also feed the measured auto-mode policy, which must work
// without MSC_METRICS). stats() snapshots them. None of it changes what
// the solvers compute: instrumentation never touches the distance values.
//
// Row eviction (MSC_ORACLE_ROWS_MB): PairCentricOracle can run under a row
// cache budget. When set, lazily cached rows are evicted least-recently-
// touched-first; landmark rows are pinned and the row just inserted is
// never the victim. Re-materializing an evicted row re-runs the identical
// deterministic Dijkstra, so values are bit-identical across evictions.
// Span safety under eviction is lease-based: acquireRowLease() returns a
// token; while any token is alive, evicted rows are parked (still counted
// in residentBytes) instead of freed, so previously returned spans stay
// valid. Instance holds a lease for its lifetime, which covers every
// evaluator in the tree. Without a budget (the default) nothing is ever
// evicted and spans simply live as long as the oracle, as before.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/apsp.h"
#include "graph/graph.h"

namespace msc::graph {

/// Backend selection knob (Instance, serve load_graph, msc_cli).
enum class DistanceMode {
  Auto,         ///< dense when n <= kDenseAutoNodeLimit, pair-centric above
  Dense,        ///< always materialize the n x n matrix
  PairCentric,  ///< never materialize; per-terminal rows only
};

/// Auto picks the dense backend up to this node count: 2048^2 doubles are
/// 32 MiB — comfortably resident — while the next power of two quadruples
/// that and the n-source APSP build starts to dominate solve time.
inline constexpr int kDenseAutoNodeLimit = 2048;

/// Stable wire/display name: "auto", "dense", "pair_centric".
const char* distanceModeName(DistanceMode mode) noexcept;

/// Inverse of distanceModeName; nullopt on unknown names.
std::optional<DistanceMode> parseDistanceMode(std::string_view name) noexcept;

/// Row-cache budget in bytes from MSC_ORACLE_ROWS_MB (<= 0 or unset means
/// 0 = unbounded, the historical behavior). Read once per call — callers
/// that want a stable value capture it in their config.
std::size_t defaultOracleRowBudgetBytes() noexcept;

/// Charged bytes of one cached distance row of `n` entries (the unit both
/// the row budget and residentBytes() count in).
std::size_t oracleRowBytes(std::size_t n) noexcept;

/// One consistent snapshot of an oracle's self-measurements. Monotonic
/// counters since construction plus current residency; the measured
/// auto-mode policy and the serve stats/metrics exporters both read this.
struct OracleStats {
  std::uint64_t pointQueries = 0;    ///< distance(x, y) calls
  std::uint64_t rowQueries = 0;      ///< distancesFrom(v) calls
  std::uint64_t terminalBatches = 0; ///< distancesToTerminals calls
  std::uint64_t rowBuilds = 0;       ///< Dijkstra row materializations
  std::uint64_t rowHits = 0;         ///< distancesFrom served from cache
  std::uint64_t altQueries = 0;      ///< ALT A* point queries (pair-centric)
  std::uint64_t rowsEvicted = 0;     ///< rows dropped under the budget
  std::uint64_t rowBuildNs = 0;      ///< wall ns spent building rows
  std::size_t rowsResident = 0;      ///< cached full rows (landmarks incl.)
  std::size_t rowsTouched = 0;       ///< distinct sources ever row-queried
  std::size_t residentBytes = 0;     ///< same value as residentBytes()
  std::int64_t oldestRowAgeNs = 0;   ///< last-touch age of the LRU evictable
                                     ///< row (0 when none)
  /// Per-landmark usefulness: how often landmark i supplied the max
  /// s-to-t lower bound of an ALT query. Empty on the dense backend.
  std::vector<std::uint64_t> landmarkUseful;
};

/// Read-only base-graph shortest-path distances. Implementations are
/// internally synchronized: all const methods are safe to call
/// concurrently (lazy backends cache rows under a mutex).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  virtual int nodeCount() const noexcept = 0;

  /// d(x, y) in the base graph; kInfDist when disconnected. Backends may
  /// serve either search direction of the query, so on multi-edge paths
  /// the last ulp can depend on which rows happen to be cached — callers
  /// needing reproducible bits should go through distancesFrom.
  virtual double distance(NodeId x, NodeId y) const = 0;

  /// Full distance row of v (nodeCount() entries, indexed by target).
  /// Lazy backends compute and cache the row on first call. The returned
  /// span stays valid for the oracle's lifetime — unless the oracle runs
  /// under a row budget, in which case it stays valid while a row lease
  /// (acquireRowLease) taken before the call is held, or, leaseless, only
  /// until the next oracle call.
  virtual std::span<const double> distancesFrom(NodeId v) const = 0;

  /// Computes (and caches) the rows of `sources` that are not cached yet,
  /// `threads` at a time (0 = all cores). Must not be called from inside a
  /// parallelFor chunk. No-op for backends that hold all rows anyway.
  virtual void prefetchRows(std::span<const NodeId> sources,
                            int threads) const;

  /// Owned |terminals| x n block of rows in the given terminal order
  /// (duplicates allowed, each copied). Seeds ShortcutRowStore.
  util::Matrix<double> distancesToTerminals(std::span<const NodeId> terminals,
                                            int threads = 1) const;

  /// Estimated bytes this oracle keeps resident (the dense matrix, rows,
  /// landmark rows, lease-parked evicted rows). Grows as lazy rows
  /// are cached; shrinks again when budgeted rows are evicted and freed.
  virtual std::size_t residentBytes() const noexcept = 0;

  /// Backend name as exported by serve stats/metrics:
  /// "dense" | "pair_centric".
  virtual const char* mode() const noexcept = 0;

  /// Snapshot of the oracle's telemetry counters.
  virtual OracleStats stats() const;

  /// Pins every span this oracle hands out while the returned token is
  /// alive: rows evicted under the budget are parked, not freed, until the
  /// last token is released. Null (and free) on backends that never evict.
  /// The token must not outlive the oracle.
  virtual std::shared_ptr<void> acquireRowLease() const { return nullptr; }

 protected:
  void checkNode(NodeId v) const;

  /// Base-class accounting shared by all backends (distancesToTerminals).
  mutable std::atomic<std::uint64_t> terminalBatches_{0};
};

/// Dense backend: adapts a full APSP matrix to the oracle interface.
/// Queries are O(1) lookups into the (symmetric) matrix, so results are
/// bit-identical to historical DistanceMatrix consumers.
class DenseMatrixOracle final : public DistanceOracle {
 public:
  /// Owning: shares the matrix (the serve cache hands its memoized matrix
  /// to many instances this way).
  explicit DenseMatrixOracle(std::shared_ptr<const DistanceMatrix> matrix);

  /// Non-owning view; the matrix must outlive the oracle. Temporaries are
  /// rejected — pass a shared_ptr to transfer ownership.
  explicit DenseMatrixOracle(const DistanceMatrix& matrix);
  explicit DenseMatrixOracle(DistanceMatrix&& matrix) = delete;

  /// Runs APSP on `g` (`threads` workers) and wraps the result.
  static std::shared_ptr<DenseMatrixOracle> build(const Graph& g, int threads);

  int nodeCount() const noexcept override {
    return static_cast<int>(matrix_->rows());
  }
  double distance(NodeId x, NodeId y) const override;
  std::span<const double> distancesFrom(NodeId v) const override;
  void prefetchRows(std::span<const NodeId> sources,
                    int threads) const override;
  std::size_t residentBytes() const noexcept override;
  const char* mode() const noexcept override { return "dense"; }
  OracleStats stats() const override;

 private:
  void initTouched();

  std::shared_ptr<const DistanceMatrix> owned_;  // null when borrowing
  const DistanceMatrix* matrix_;

  mutable std::atomic<std::uint64_t> pointQueries_{0};
  mutable std::atomic<std::uint64_t> rowQueries_{0};
  // One flag per source row ever requested via distancesFrom — the
  // measured auto policy uses the count to predict pair-centric residency.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> rowTouched_;
};

/// Pair-centric backend: one cached Dijkstra row per requested source,
/// plus ALT (A*, landmarks, triangle-inequality) point-to-point queries
/// for sources that never earn a full row. Resident memory is
/// O((|cached rows| + landmarks) * n) instead of O(n^2) — and bounded when
/// Config::rowBudgetBytes caps the row cache (see the file comment).
class PairCentricOracle final : public DistanceOracle {
 public:
  struct Config {
    /// Landmark count for ALT lower bounds. Clamped to [0, n]; 0 degrades
    /// point queries to plain bidirectional-free Dijkstra with early exit.
    int landmarks = 8;
    /// Row-cache byte budget; 0 = unbounded. Landmark rows are pinned and
    /// count against the budget but are never evicted.
    std::size_t rowBudgetBytes = 0;
  };

  /// Keeps the graph alive; landmark rows are computed eagerly (that many
  /// Dijkstra runs) so later point queries never race the selection.
  PairCentricOracle(std::shared_ptr<const Graph> graph, Config config);
  explicit PairCentricOracle(std::shared_ptr<const Graph> graph);

  int nodeCount() const noexcept override {
    return graph_->nodeCount();
  }
  double distance(NodeId x, NodeId y) const override;
  std::span<const double> distancesFrom(NodeId v) const override;
  void prefetchRows(std::span<const NodeId> sources,
                    int threads) const override;
  std::size_t residentBytes() const noexcept override {
    return bytes_.load(std::memory_order_relaxed);
  }
  const char* mode() const noexcept override { return "pair_centric"; }
  OracleStats stats() const override;
  std::shared_ptr<void> acquireRowLease() const override;

  /// Landmark nodes actually chosen (deterministic farthest-point sweep
  /// from node 0; may be shorter than Config::landmarks on tiny graphs).
  std::span<const NodeId> landmarks() const noexcept { return landmarkIds_; }

  /// Number of full rows currently cached (landmarks included).
  std::size_t cachedRowCount() const;

  /// Configured row-cache budget (0 = unbounded).
  std::size_t rowBudgetBytes() const noexcept { return budget_; }

 private:
  struct Row {
    std::shared_ptr<const std::vector<double>> data;
    std::uint64_t touch = 0;     // logical LRU clock (higher = hotter)
    std::int64_t touchNs = 0;    // steady-clock ns of the last touch
    bool pinned = false;         // landmark rows are never evicted
  };

  /// A* from s to t with the max-landmark lower bound as potential; exact,
  /// bit-identical to the corresponding full-row entry. No caching.
  double altPointQuery(NodeId s, NodeId t) const;
  double altSearch(NodeId s, NodeId t, std::size_t& settledOut,
                   double& boundOut) const;
  void selectLandmarks(int count);
  /// Builds the row of `v` (timed, counted). Lock-free; call outside mu_.
  std::vector<double> buildRow(NodeId v) const;
  /// Marks `v` as row-requested (first time only). Caller holds mu_.
  void noteRowTouchedLocked(NodeId v) const;
  /// Evicts LRU rows until the cache fits the budget; never evicts pinned
  /// rows or `protect`. Caller holds mu_.
  void enforceBudgetLocked(NodeId protect) const;
  void releaseRowLease() const;

  std::shared_ptr<const Graph> graph_;
  std::size_t budget_ = 0;
  std::vector<NodeId> landmarkIds_;
  // Shared refs to the landmark rows give the point-query hot loop
  // lock-free access (the rows are immutable and pinned in the cache).
  std::vector<std::shared_ptr<const std::vector<double>>> landmarkRows_;
  // Per-landmark arg-max counts for the ALT s-to-t bound (usefulness).
  std::unique_ptr<std::atomic<std::uint64_t>[]> landmarkUseful_;

  mutable std::mutex mu_;
  mutable std::map<NodeId, Row> rows_;
  mutable std::uint64_t touchSeq_ = 0;
  mutable std::size_t rowCacheBytes_ = 0;  // rows_ only
  mutable std::vector<std::uint8_t> rowRequested_;  // dedup for rowsTouched
  mutable std::size_t rowsTouched_ = 0;
  // Rows evicted while a lease was outstanding: still resident (spans may
  // point into them), freed when the last lease goes away.
  mutable std::vector<std::shared_ptr<const std::vector<double>>> retired_;
  mutable std::atomic<int> leases_{0};

  mutable std::atomic<std::size_t> bytes_{0};

  mutable std::atomic<std::uint64_t> pointQueries_{0};
  mutable std::atomic<std::uint64_t> rowQueries_{0};
  mutable std::atomic<std::uint64_t> rowBuilds_{0};
  mutable std::atomic<std::uint64_t> rowHits_{0};
  mutable std::atomic<std::uint64_t> altQueries_{0};
  mutable std::atomic<std::uint64_t> rowsEvicted_{0};
  mutable std::atomic<std::uint64_t> rowBuildNs_{0};
};

// ---- measured auto-mode policy -------------------------------------------

/// One backend decision for DistanceMode::Auto, with a human-readable
/// reason naming the quantities that drove it (logged as the structured
/// serve.oracle_mode_decision event).
struct AutoPolicyDecision {
  DistanceMode backend = DistanceMode::Dense;  // Dense or PairCentric
  bool switchBackend = false;  // revalidation verdict (initial pick: false)
  std::string reason;
};

/// Initial Auto pick before any queries exist: the static node-count rule
/// (dense iff n <= kDenseAutoNodeLimit).
AutoPolicyDecision autoInitialBackend(int nodeCount);

/// Re-validates a running Auto-mode backend against its measured query mix
/// (OracleStats from the live oracle). Switches pair_centric -> dense when
/// resident row bytes exceed half the dense n^2 matrix (the lazy cache
/// stopped paying for itself), and dense -> pair_centric when the touched
/// rows predict a pair-centric residency at most a quarter of the dense
/// matrix while the query mix is row-dominated (point queries would hit
/// the slower ALT path). The 1/2-vs-1/4 gap is deliberate hysteresis so a
/// workload near the boundary cannot flap. Never suggests pair_centric at
/// n <= kDenseAutoNodeLimit (dense is always fine there).
AutoPolicyDecision autoRevalidateBackend(int nodeCount,
                                         std::string_view currentBackend,
                                         const OracleStats& measured);

/// Backend factory honoring Auto selection. `landmarks` feeds the
/// pair-centric config; the dense path runs APSP with `threads` workers.
/// `rowBudgetBytes` caps the pair-centric row cache (0 = unbounded;
/// defaults to the MSC_ORACLE_ROWS_MB environment knob).
std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode mode, int landmarks,
    int threads, std::size_t rowBudgetBytes = defaultOracleRowBudgetBytes());

}  // namespace msc::graph

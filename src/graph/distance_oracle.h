// Pair-centric distance API: the abstraction that breaks the O(n^2) wall.
//
// Every MSC evaluator consumes base-graph shortest-path distances, but none
// of them needs all n^2 of them: sigma/mu/nu only ever read distances from
// the m social-pair endpoints (and the endpoints of placed shortcuts) to
// the rest of the graph. DistanceOracle is one row store with two
// residency modes:
//
//   * lazy ("pair_centric") — stores only the rows actually requested
//     (|terminals| x n doubles), computing each with one Dijkstra on
//     demand, plus ALT landmark rows for point-to-point queries that do
//     not deserve a full row.
//   * all rows resident ("dense") — takes every row from the
//     allPairsDistances matrix at construction and never evicts. Reads go
//     straight to that matrix without the row mutex; values are
//     bit-identical to the historical dense path.
//
// Numerical contract: the resident matrix is symmetrized across the two
// sweep directions (see allPairsDistances), while a lazy row is the raw
// one-directional Dijkstra result. The two can differ in the last ulp on
// paths of >= 3 edges (floating-point addition is not associative). All
// threshold-counting objectives (sigma/mu/nu, with or without per-pair
// weights) are sums over comparisons d <= d_t, so the modes agree exactly
// unless a distance lands within one ulp of the threshold — the property
// suite in tests/test_distance_oracle.cpp sweeps every generator to
// confirm the values coincide in practice.
//
// Telemetry (docs/ALGORITHMS.md §16): every oracle self-measures its query
// mix — point vs row vs terminal-batch queries, lazy-row builds vs hits,
// ALT effectiveness, evictions — through relaxed atomics that are always
// on. stats() snapshots them. None of it changes what the solvers compute:
// instrumentation never touches the distance values.
//
// Row eviction (MSC_ORACLE_ROWS_MB): the lazy mode can run under a row
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
#include <string_view>
#include <vector>

#include "graph/apsp.h"
#include "graph/graph.h"

namespace msc::graph {

/// Residency selection knob (Instance, serve load_graph, msc_cli).
enum class DistanceMode {
  Auto,         ///< dense when n <= kDenseAutoNodeLimit, pair-centric above
  Dense,        ///< all rows resident: the n x n matrix
  PairCentric,  ///< lazy: per-terminal rows only
};

/// Auto picks the dense mode up to this node count: 2048^2 doubles are
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
/// counters since construction plus current residency; the serve
/// stats/metrics exporters read this.
struct OracleStats {
  std::uint64_t pointQueries = 0;    ///< distance(x, y) calls
  std::uint64_t rowQueries = 0;      ///< distancesFrom(v) calls
  std::uint64_t terminalBatches = 0; ///< distancesToTerminals calls
  std::uint64_t rowBuilds = 0;       ///< Dijkstra row materializations
  std::uint64_t rowHits = 0;         ///< distancesFrom served from cache
  std::uint64_t altQueries = 0;      ///< ALT A* point queries (lazy mode)
  std::uint64_t rowsEvicted = 0;     ///< rows dropped under the budget
  std::uint64_t rowBuildNs = 0;      ///< wall ns spent building rows
  std::size_t rowsResident = 0;      ///< cached full rows (landmarks incl.)
  std::size_t residentBytes = 0;     ///< same value as residentBytes()
  /// Per-landmark usefulness: how often landmark i supplied the max
  /// s-to-t lower bound of an ALT query. Empty in the resident mode.
  std::vector<std::uint64_t> landmarkUseful;
};

/// Read-only base-graph shortest-path distances: one Dijkstra row per
/// source, held lazily (with ALT point queries and optional LRU eviction)
/// or all resident. Internally synchronized: all const methods are safe to
/// call concurrently.
class DistanceOracle {
 public:
  /// Lazy-mode knobs.
  struct Config {
    /// Landmark count for ALT lower bounds. Clamped to [0, n]; 0 degrades
    /// point queries to plain bidirectional-free Dijkstra with early exit.
    int landmarks = 8;
    /// Row-cache byte budget; 0 = unbounded. Landmark rows are pinned and
    /// count against the budget but are never evicted.
    std::size_t rowBudgetBytes = 0;
  };

  /// Selects the all-rows-resident mode; `threads` workers run the APSP.
  struct AllRowsResident {
    int threads = 1;
  };

  /// Lazy mode. Keeps the graph alive; landmark rows are computed eagerly
  /// (that many Dijkstra runs) so later point queries never race the
  /// selection.
  DistanceOracle(std::shared_ptr<const Graph> graph, Config config);

  /// All-rows-resident mode: every row of allPairsDistances(*graph,
  /// threads), charged n^2 * 8 + 64 bytes, never evicted.
  DistanceOracle(std::shared_ptr<const Graph> graph, AllRowsResident mode);

  int nodeCount() const noexcept { return graph_->nodeCount(); }

  /// d(x, y) in the base graph; kInfDist when disconnected. The lazy mode
  /// may serve either search direction of the query, so on multi-edge
  /// paths the last ulp can depend on which rows happen to be cached —
  /// callers needing reproducible bits should go through distancesFrom.
  double distance(NodeId x, NodeId y) const;

  /// Full distance row of v (nodeCount() entries, indexed by target).
  /// The lazy mode computes and caches the row on first call. The returned
  /// span stays valid for the oracle's lifetime — unless the oracle runs
  /// under a row budget, in which case it stays valid while a row lease
  /// (acquireRowLease) taken before the call is held, or, leaseless, only
  /// until the next oracle call.
  std::span<const double> distancesFrom(NodeId v) const;

  /// Computes (and caches) the rows of `sources` that are not cached yet,
  /// `threads` at a time (0 = all cores). Must not be called from inside a
  /// parallelFor chunk. Only validates the ids when all rows are resident.
  void prefetchRows(std::span<const NodeId> sources, int threads) const;

  /// Owned |terminals| x n block of rows in the given terminal order
  /// (duplicates allowed, each copied). Seeds ShortcutRowStore.
  util::Matrix<double> distancesToTerminals(std::span<const NodeId> terminals,
                                            int threads = 1) const;

  /// Estimated bytes this oracle keeps resident (the resident matrix, or
  /// the cached rows, landmark rows and lease-parked evicted rows). Grows
  /// as lazy rows are cached; shrinks again when budgeted rows are evicted
  /// and freed.
  std::size_t residentBytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Residency name as exported by serve stats/metrics:
  /// "dense" | "pair_centric".
  const char* mode() const noexcept {
    return allRows_ ? "dense" : "pair_centric";
  }

  /// Snapshot of the oracle's telemetry counters.
  OracleStats stats() const;

  /// Pins every span this oracle hands out while the returned token is
  /// alive: rows evicted under the budget are parked, not freed, until the
  /// last token is released. Null (and free) when all rows are resident.
  /// The token must not outlive the oracle.
  std::shared_ptr<void> acquireRowLease() const;

  /// Landmark nodes actually chosen (deterministic farthest-point sweep
  /// from node 0; may be shorter than Config::landmarks on tiny graphs).
  /// Empty when all rows are resident.
  std::span<const NodeId> landmarks() const noexcept { return landmarkIds_; }

  /// Number of full rows currently held (landmarks included).
  std::size_t cachedRowCount() const;

  /// Configured row-cache budget (0 = unbounded).
  std::size_t rowBudgetBytes() const noexcept { return budget_; }

 private:
  struct Row {
    std::shared_ptr<const std::vector<double>> data;
    std::uint64_t touch = 0;     // logical LRU clock (higher = hotter)
    bool pinned = false;         // landmark rows are never evicted
  };

  void checkNode(NodeId v) const;
  /// A* from s to t with the max-landmark lower bound as potential; exact,
  /// bit-identical to the corresponding full-row entry. No caching.
  double altPointQuery(NodeId s, NodeId t) const;
  double altSearch(NodeId s, NodeId t, std::size_t& settledOut,
                   double& boundOut) const;
  void selectLandmarks(int count);
  /// Builds the row of `v` (timed, counted). Lock-free; call outside mu_.
  std::vector<double> buildRow(NodeId v) const;
  /// Inserts (or re-touches) the row of `v`. Caller holds mu_ (or is the
  /// constructor).
  Row& storeLocked(NodeId v, std::vector<double>&& dist) const;
  /// Evicts LRU rows until the cache fits the budget; never evicts pinned
  /// rows or `protect`. Caller holds mu_.
  void enforceBudgetLocked(NodeId protect) const;
  void releaseRowLease() const;

  std::shared_ptr<const Graph> graph_;
  // All-rows-resident mode: the APSP matrix, immutable after construction
  // and read without mu_. Empty (and allRows_ false) in the lazy mode.
  DistanceMatrix matrix_;
  bool allRows_ = false;
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
  // Rows evicted while a lease was outstanding: still resident (spans may
  // point into them), freed when the last lease goes away.
  mutable std::vector<std::shared_ptr<const std::vector<double>>> retired_;
  mutable std::atomic<int> leases_{0};

  mutable std::atomic<std::size_t> bytes_{0};

  mutable std::atomic<std::uint64_t> pointQueries_{0};
  mutable std::atomic<std::uint64_t> rowQueries_{0};
  mutable std::atomic<std::uint64_t> terminalBatches_{0};
  mutable std::atomic<std::uint64_t> rowBuilds_{0};
  mutable std::atomic<std::uint64_t> rowHits_{0};
  mutable std::atomic<std::uint64_t> altQueries_{0};
  mutable std::atomic<std::uint64_t> rowsEvicted_{0};
  mutable std::atomic<std::uint64_t> rowBuildNs_{0};
};

/// Oracle factory honoring Auto selection: all rows resident iff Dense, or
/// Auto with n <= kDenseAutoNodeLimit (the APSP runs with `threads`
/// workers); lazy otherwise, with `landmarks` ALT landmarks and the row
/// cache capped at `rowBudgetBytes` (0 = unbounded; defaults to the
/// MSC_ORACLE_ROWS_MB environment knob).
std::shared_ptr<const DistanceOracle> makeDistanceOracle(
    std::shared_ptr<const Graph> graph, DistanceMode mode, int landmarks,
    int threads, std::size_t rowBudgetBytes = defaultOracleRowBudgetBytes());

}  // namespace msc::graph

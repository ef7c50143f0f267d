// Long-running MSC solve service: request execution engine + front ends.
//
// Layering (docs/ALGORITHMS.md §12):
//
//   Engine  — executes one parsed msc.serve.v1 request against the shared
//             InstanceCache and the existing solver entry points. Thread-
//             safe and deterministic: a solve through the engine is
//             bit-identical to the direct CLI path at equal
//             {algo, k, threads, seed}, and to any serial replay of the
//             same request set (content-addressed cache keys make replies
//             independent of interleaving).
//   Server  — owns one Engine, a BOUNDED admission queue and one executor
//             thread. Front ends (stdin/stdout JSONL, arbitrary iostreams
//             for tests, or a Unix-domain socket accepting concurrent
//             connections) parse lines and admit them; when the queue is
//             full the request is answered `status:"overloaded"`
//             immediately instead of growing the queue — backpressure the
//             client can see. The executor drains FIFO, so responses to
//             admitted requests preserve admission order per connection.
//
// Shutdown: a `shutdown` request, EOF on the input, or
// Server::requestShutdown() (async-signal-safe; wire it to SIGINT/SIGTERM)
// all stop admission, drain every already-admitted request, then return.
// Requests that arrive after a shutdown request are answered with a
// structured "server is shutting down" error, never silently dropped.
//
// Observability: each request runs under an obs span (span.serve.request +
// a per-command span), bumps serve.* counters (requests, per-command
// counts, cache hits/misses, overload rejections) and emits a
// "serve.queue_depth" trace counter track, so a solve service under load
// can be profiled with the exact same MSC_METRICS / MSC_TRACE tooling as a
// one-shot CLI run. Service-grade telemetry on top of that
// (docs/ALGORITHMS.md §13):
//   - latency histograms (obs/histogram.h), always on: per-request wall
//     time ("serve.request_seconds") and admission-queue wait
//     ("serve.queue_wait_seconds"), alongside the library-level
//     "apsp.build_seconds" / "greedy.round_scan_seconds";
//   - Prometheus text exposition of the whole registry via the `metrics`
//     command or a plain-HTTP GET /metrics listener
//     (startMetricsHttp, `msc_cli serve --metrics-listen PORT`);
//   - one structured JSONL log line per request (obs/log.h, MSC_LOG=info)
//     with id, command, status, cache hit/miss, queue wait and wall time;
//   - a `health` readiness probe answered on the reader thread (never
//     queued behind solves) that reports ready:false while
//     draining/shutting down, mirrored as HTTP 200/503 on GET /healthz.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "util/cancel.h"

namespace msc::serve {

/// MSC_SERVE_CACHE_MB (default 256) in bytes.
std::size_t defaultCacheBytes();

struct EngineConfig {
  /// Instance-cache byte budget; 0 disables eviction.
  std::size_t cacheBytes = defaultCacheBytes();
  /// Worker threads for requests that omit "threads" (0 = all cores).
  int defaultThreads = 1;
  /// Row-cache byte budget per pair-centric oracle (0 = unbounded);
  /// defaults to the MSC_ORACLE_ROWS_MB knob (`serve --oracle-rows-mb`).
  /// Evicted rows re-materialize bit-identically, so solve responses never
  /// depend on it.
  std::size_t oracleRowBytes = msc::graph::defaultOracleRowBudgetBytes();
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Parses and executes one request line. Never throws: malformed input
  /// and execution failures come back as status:"error" responses.
  std::string handleLine(const std::string& line);

  /// Reply to a line parseRequest rejected, counted in `stats` errors.
  std::string rejectLine(const ProtocolError& error);

  /// Executes an already-parsed request. Never throws. `queueWaitSeconds`
  /// is how long the request sat in the admission queue (0 when executed
  /// directly); it feeds the serve.queue_wait_seconds histogram and the
  /// per-request log line.
  ///
  /// Live introspection (docs/ALGORITHMS.md §18): when the request carries
  /// a `"progress"` object, `notify` (if non-null) receives one rendered
  /// `{"event":"progress",...}` line per emitted snapshot, from the solver
  /// thread, before the final response line is returned. `cancel` lets the
  /// caller share a pre-registered token (the Server registers one per
  /// admitted job so `cancel` reaches requests still in the queue); when
  /// null the engine uses a request-local token. A `"deadline_seconds"`
  /// parameter arms the token with the remaining budget (deadline minus
  /// queue wait); a fired token turns the reply into an anytime result
  /// with status "cancelled" / "deadline_exceeded".
  std::string handle(const Request& request, double queueWaitSeconds = 0.0,
                     const std::function<void(const std::string&)>* notify =
                         nullptr,
                     util::CancelToken* cancel = nullptr);

  /// True once a shutdown request has been executed.
  bool shutdownRequested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  InstanceCache& cache() noexcept { return cache_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Extra fields merged into every `stats` response (the Server injects
  /// queue depth/limit and overload counts). Set before serving traffic.
  void setStatsHook(std::function<void(json::Object&)> hook) {
    statsHook_ = std::move(hook);
  }

  /// Extra readiness condition ANDed into `health` replies (the Server
  /// wires the process-wide shutdown flag in). Set before serving traffic.
  void setReadyHook(std::function<bool()> hook) {
    readyHook_ = std::move(hook);
  }

  /// Extra cancellation targets consulted by the `cancel` command after the
  /// engine's own executing-request registry: the Server wires the
  /// admission queue's per-job tokens in, so a cancel reaches requests that
  /// are admitted but not yet executing. Returns true when a matching
  /// request was found and its token fired.
  void setCancelHook(std::function<bool(const std::string&)> hook) {
    cancelHook_ = std::move(hook);
  }

  /// Readiness as `health` reports it: false once shutdown was requested
  /// (draining) or the ready hook vetoes.
  bool ready() const;

  /// This engine's labeled series (docs/ALGORITHMS.md §13): the
  /// msc_serve_oracle_* families read from the cache at scrape,
  /// msc_serve_cancellations_total{reason} and
  /// msc_serve_requests_inflight{phase} (the Server observes "queued").
  /// One registry per engine, so engines sharing a process keep separate
  /// counts.
  obs::Registry& metrics() noexcept { return metrics_; }
  const obs::Registry& metrics() const noexcept { return metrics_; }

  /// Prometheus text exposition: the global metrics registry, then this
  /// engine's registry. Used by the `metrics` command and the GET /metrics
  /// endpoint.
  std::string metricsText() const;

 private:
  json::Object dispatch(const Request& request, std::uint64_t& gainEvals,
                        util::CancelToken& cancel);
  json::Object cmdLoadGraph(const Request& request);
  json::Object cmdLoadPairs(const Request& request);
  json::Object cmdSolve(const Request& request, std::uint64_t& gainEvals);
  json::Object cmdEval(const Request& request);
  json::Object cmdStats(const Request& request);
  json::Object cmdMetrics(const Request& request);
  json::Object cmdHealth(const Request& request);
  json::Object cmdCancel(const Request& request);
  /// Resolves a client-supplied graph/pairs reference: an alias registered
  /// via load_*'s "as" field, or a raw content key.
  std::string resolveKey(const std::string& ref);
  void registerAlias(const std::string& alias, const std::string& key);

  EngineConfig config_;
  InstanceCache cache_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::function<void(json::Object&)> statsHook_;
  std::function<bool()> readyHook_;
  std::function<bool(const std::string&)> cancelHook_;
  std::chrono::steady_clock::time_point start_;
  // After cache_: its observe() callbacks read the cache.
  obs::Registry metrics_;
  mutable std::mutex aliasMu_;
  std::map<std::string, std::string> aliases_;
  /// Tokens of currently-executing requests keyed by the JSON-rendered
  /// request id; `cancel` fires every match (duplicate client ids are the
  /// client's problem — all of them stop).
  mutable std::mutex inflightMu_;
  std::multimap<std::string, util::CancelToken*> inflightTokens_;
};

struct ServerConfig {
  EngineConfig engine;
  /// Pending (admitted, not yet executing) requests before new ones are
  /// answered status:"overloaded".
  std::size_t queueLimit = 64;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// JSONL loop over iostreams (tests; also fine for pipes). Blocks until
  /// EOF, a shutdown request, or requestShutdown(); drains admitted
  /// requests before returning. Returns 0 on clean shutdown.
  /// Note: a blocking istream read cannot be interrupted mid-call — with a
  /// terminal attached use serveFd, whose poll loop notices flags promptly.
  int serveStream(std::istream& in, std::ostream& out);

  /// Same protocol over raw file descriptors (poll-based reader, reacts to
  /// shutdown within ~200 ms even while idle). The CLI's stdio front end
  /// is serveFd(0, 1).
  int serveFd(int inFd, int outFd);

  /// Unix-domain-socket front end: binds `path` (an existing socket file
  /// is replaced), accepts any number of concurrent connections, shares
  /// the one admission queue + executor across them. Returns 0 on clean
  /// shutdown, throws std::runtime_error when the socket cannot be set up.
  int serveUnixSocket(const std::string& path);

  /// Starts a plain-HTTP telemetry listener on 127.0.0.1:`port` (0 picks an
  /// ephemeral port) running on its own thread beside any serve front end:
  ///   GET /metrics -> 200, Prometheus text exposition of the registry
  ///   GET /healthz -> 200 "ok" while ready, 503 "draining" afterwards
  /// Returns the bound port; throws std::runtime_error on bind failure.
  /// Stopped (thread joined, socket closed) by stopMetricsHttp() or the
  /// destructor; it keeps answering while a requested shutdown drains.
  int startMetricsHttp(int port);
  void stopMetricsHttp();

  Engine& engine() noexcept { return engine_; }
  const ServerConfig& config() const noexcept { return config_; }
  /// Overload rejections since construction.
  std::uint64_t overloadedCount() const noexcept {
    return overloaded_.load(std::memory_order_relaxed);
  }

  /// Async-signal-safe global stop flag shared by every Server in the
  /// process: an atomic store, suitable for direct use in a SIGINT/SIGTERM
  /// handler. Serving loops notice it, stop admitting, drain and return.
  static void requestShutdown() noexcept;
  static bool shutdownRequested() noexcept;
  /// Re-arms after a handled shutdown (tests run many servers per process).
  static void clearShutdownFlag() noexcept;

 private:
  friend struct ServerRun;  // per-front-end queue/executor machinery (.cpp)

  /// Answers one already-accepted telemetry HTTP connection (no keep-alive).
  void serveOneMetricsHttpConn(int conn);

  ServerConfig config_;
  Engine engine_;
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::size_t> queueDepth_{0};
  std::atomic<bool> metricsHttpStop_{false};
  int metricsHttpFd_ = -1;
  std::thread metricsHttpThread_;
};

}  // namespace msc::serve

// Async query server — the online half of the heavy-traffic north star.
//
// Concurrent clients Submit tuple-search requests and get futures back; a
// dispatcher thread admits requests from a bounded queue (backpressure: a
// full queue blocks Submit, it never drops), micro-batches them within a
// configurable window, and answers each batch through one
// TupleSearch::SearchTuplesBatch call on a shared executor. Results are
// bit-identical to sequential TupleSearch::SearchTuplesChecked; the batching
// only changes scheduling, never scoring. Malformed requests (zero-row
// query tables) are rejected per-request with InvalidArgument instead of
// aborting the process.
//
// Serving hardening on top of the batching core:
//  - Result cache: with cache_entries > 0, Submit fingerprints the query
//    and probes a bounded LRU ResultCache before queue admission — a hit
//    resolves the future immediately and never occupies batch capacity,
//    so hot (skewed, repeated) traffic costs one encode + one map probe.
//    Entries are invalidated by the lake staleness hash; a re-indexed
//    lake can never serve stale hits.
//  - Observability: every component publishes atomics into a serve::Metrics
//    registry (renderable as a human table or Prometheus-style text), and
//    latency percentiles come from a fixed-bucket histogram, so stats()
//    costs O(buckets) at any uptime. A Readiness state (kStarting ->
//    kReady -> kDraining) supports deploy-time health probes.
#ifndef DUST_SERVE_QUERY_SERVER_H_
#define DUST_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "search/tuple_search.h"
#include "serve/bounded_queue.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "table/table.h"
#include "util/status.h"

namespace dust::serve {

struct QueryServerOptions {
  /// Executor pool size shared by index fan-out, encoding, and fusion.
  /// 0 runs batches inline on the dispatcher thread (deterministic tests).
  size_t threads = 4;
  /// Bounded request queue; a full queue blocks Submit (backpressure).
  size_t queue_capacity = 256;
  /// A batch dispatches once it holds this many requests...
  size_t max_batch = 32;
  /// ...or once the oldest admitted request has waited this long, whichever
  /// comes first. 0 = dispatch whatever is already queued (no added wait).
  size_t batch_window_us = 2000;
  /// Result cache capacity in entries; 0 disables the cache entirely (the
  /// on/off knob). Hits bypass the batch queue.
  size_t cache_entries = 0;
  /// Result cache capacity in bytes of cached hit lists.
  size_t cache_bytes = size_t{64} << 20;
  /// Fraction of requests traced into obs::SpanCollector::Global() with a
  /// deterministic sampler; 0 disables tracing entirely (no clock reads on
  /// the hot path), 1 traces everything. Must be a finite value in [0, 1].
  double trace_sample_rate = 0.0;
  /// Requests whose Submit -> future-ready latency meets or exceeds this
  /// threshold (ms) are logged at WARN with their trace id and span tree.
  /// Negative disables the slow-query log; 0 logs every request.
  double slow_query_ms = -1.0;
};

/// Serving counters and latency percentiles (Submit -> future ready).
/// Counters cover the whole lifetime; percentiles come from a fixed-bucket
/// histogram, so this snapshot is O(buckets) to produce at any uptime.
struct QueryServerStats {
  uint64_t submitted = 0;  ///< accepted: cache hits + queued requests
  uint64_t served = 0;     ///< futures fulfilled via a dispatched batch
  uint64_t rejected = 0;   ///< refused up front (no rows / shut down)
  uint64_t batches = 0;
  double mean_batch_size = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t queue_depth = 0;      ///< at the moment stats() was called
  size_t max_queue_depth = 0;  ///< high-water mark over the server lifetime
  uint64_t cache_hits = 0;     ///< requests resolved without queueing
  uint64_t cache_misses = 0;   ///< cache probes that went to the queue
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;  ///< stale entries dropped on lookup
  size_t cache_entries = 0;          ///< resident entries right now
  size_t cache_bytes = 0;            ///< resident hit-list bytes right now
  /// hits / (hits + misses); 0 when the cache is disabled or cold.
  double cache_hit_rate = 0.0;
};

class QueryServer {
 public:
  using TupleResult = Result<std::vector<search::TupleHit>>;

  /// The server borrows `search` (already IndexLake'd; an unbuilt index is
  /// reported per-request as FailedPrecondition, never an abort) for its
  /// lifetime.
  QueryServer(const search::TupleSearch* search, QueryServerOptions options);
  /// Shuts down (completing in-flight requests) if Shutdown wasn't called.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Admits one request. Blocks while the queue is full (backpressure);
  /// the future becomes ready when the request's batch is served — or
  /// immediately on a result-cache hit, which never enters the queue.
  /// `query` must stay alive until the future is ready. A query with no
  /// rows resolves immediately to InvalidArgument, a Submit after Shutdown
  /// to FailedPrecondition.
  std::future<TupleResult> Submit(const table::Table& query, size_t k);

  /// Stops admission, serves every request already queued, and joins the
  /// dispatcher. Idempotent; called by the destructor.
  void Shutdown();

  QueryServerStats stats() const;
  const QueryServerOptions& options() const { return options_; }

  /// The server's observability registry (serve counters, latency
  /// histograms, cache and executor instruments). Valid for the server's
  /// lifetime; render with RenderTable()/RenderText().
  const Metrics& metrics() const { return metrics_; }

  /// Lifecycle probe: kReady once the dispatcher accepts traffic,
  /// kDraining from the first Shutdown call on.
  Readiness readiness() const {
    return readiness_.load(std::memory_order_acquire);
  }

 private:
  struct Request {
    const table::Table* query = nullptr;
    size_t k = 0;
    std::promise<TupleResult> promise;
    std::chrono::steady_clock::time_point admitted;
    /// Set when the result cache is enabled: where to insert the computed
    /// result, and the lake hash it was computed against.
    bool cacheable = false;
    ResultCache::Key cache_key;
    uint64_t snapshot_hash = 0;
    /// Sampled at admission; `span_id` is the root "serve" span, recorded
    /// when the request resolves. All-zero when the request is untraced.
    obs::TraceContext trace;
  };

  void DispatchLoop();
  void Dispatch(std::vector<Request>* batch);
  void RegisterMetrics();
  /// Records latency, the root "serve" span, and the slow-query log for a
  /// resolving request.
  void ObserveCompletion(const Request& request,
                         std::chrono::steady_clock::time_point done);

  const search::TupleSearch* search_;
  const QueryServerOptions options_;
  Executor executor_;
  BoundedQueue<Request> queue_;
  std::unique_ptr<ResultCache> cache_;  // null when cache_entries == 0
  uint64_t cache_config_hash_ = 0;      // TupleSearch::ConfigHash, fixed
  std::atomic<bool> shutdown_{false};
  std::atomic<Readiness> readiness_{Readiness::kStarting};
  std::mutex shutdown_mu_;  // serializes the join in Shutdown

  Metrics metrics_;
  Counter submitted_;
  Counter served_;
  Counter rejected_;
  Counter batches_;
  Counter slow_queries_;
  Histogram latency_ms_;
  Histogram batch_occupancy_;
  obs::Sampler sampler_;

  std::thread dispatcher_;  // last member: starts after state is ready
};

}  // namespace dust::serve

#endif  // DUST_SERVE_QUERY_SERVER_H_

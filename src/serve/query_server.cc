#include "serve/query_server.h"

#include <utility>

#include "obs/trace_export.h"
#include "util/logging.h"

namespace dust::serve {

namespace {

int64_t ToSteadyMicros(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

QueryServer::QueryServer(const search::TupleSearch* search,
                         QueryServerOptions options)
    : search_(search),
      options_(options),
      executor_(options.threads),
      queue_(options.queue_capacity),
      latency_ms_(Histogram::LatencyBoundsMs()),
      batch_occupancy_(Histogram::OccupancyBounds()),
      sampler_(options.trace_sample_rate),
      dispatcher_([this] { DispatchLoop(); }) {
  DUST_CHECK(search_ != nullptr);
  DUST_CHECK(obs::ValidSampleRate(options_.trace_sample_rate));
  if (options_.cache_entries > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity_entries = options_.cache_entries;
    cache_options.capacity_bytes = options_.cache_bytes;
    cache_ = std::make_unique<ResultCache>(cache_options);
    // The config never changes over the server's lifetime, so the key's
    // config component is hashed once, not per request.
    cache_config_hash_ = search_->ConfigHash();
  }
  RegisterMetrics();
  readiness_.store(Readiness::kReady, std::memory_order_release);
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::RegisterMetrics() {
  metrics_.RegisterCounter("dust_serve_submitted_total", &submitted_);
  metrics_.RegisterCounter("dust_serve_served_total", &served_);
  metrics_.RegisterCounter("dust_serve_rejected_total", &rejected_);
  metrics_.RegisterCounter("dust_serve_batches_total", &batches_);
  metrics_.RegisterCounter("dust_slow_queries_total", &slow_queries_);
  metrics_.RegisterCallback("dust_trace_spans_recorded_total", [] {
    return static_cast<double>(obs::SpanCollector::Global().recorded_total());
  });
  metrics_.RegisterCallback("dust_trace_spans_dropped_total", [] {
    return static_cast<double>(obs::SpanCollector::Global().dropped_total());
  });
  metrics_.RegisterHistogram("dust_serve_latency_ms", &latency_ms_);
  metrics_.RegisterHistogram("dust_serve_batch_occupancy", &batch_occupancy_);
  // Pull-gauges: the queue, executor, and lifecycle already track these;
  // renders sample them live instead of duplicating state.
  metrics_.RegisterCallback("dust_serve_ready", [this] {
    return static_cast<double>(readiness());
  });
  metrics_.RegisterCallback("dust_serve_queue_depth", [this] {
    return static_cast<double>(queue_.size());
  });
  metrics_.RegisterCallback("dust_serve_queue_depth_max", [this] {
    return static_cast<double>(queue_.max_depth());
  });
  metrics_.RegisterCallback("dust_serve_queue_admitted_total", [this] {
    return static_cast<double>(queue_.total_pushed());
  });
  metrics_.RegisterCallback("dust_executor_threads", [this] {
    return static_cast<double>(executor_.num_threads());
  });
  metrics_.RegisterCallback("dust_executor_busy_threads", [this] {
    return static_cast<double>(executor_.busy_threads());
  });
  metrics_.RegisterCallback("dust_executor_tasks_total", [this] {
    return static_cast<double>(executor_.tasks_run());
  });
  // Mutable-lake gauges: live vs tombstoned tuples and the mutation
  // counter, sampled from the search object so deletes/adds made while
  // serving show up on the next scrape.
  metrics_.RegisterCallback("dust_mutable_live_vectors", [this] {
    return static_cast<double>(search_->lake_live_vectors());
  });
  metrics_.RegisterCallback("dust_mutable_tombstoned_vectors", [this] {
    return static_cast<double>(search_->lake_tombstoned_vectors());
  });
  metrics_.RegisterCallback("dust_lake_mutations_total", [this] {
    return static_cast<double>(search_->catalog().mutations());
  });
  if (cache_ != nullptr) cache_->RegisterWith(&metrics_);
}

std::future<QueryServer::TupleResult> QueryServer::Submit(
    const table::Table& query, size_t k) {
  const auto arrival = std::chrono::steady_clock::now();
  std::promise<TupleResult> promise;
  std::future<TupleResult> future = promise.get_future();
  if (query.num_rows() == 0) {
    // A malformed request must not abort (or even reach) the serving path;
    // resolve it immediately so its client can move on.
    promise.set_value(Status::InvalidArgument(
        "query table has no rows; nothing to match against the lake"));
    rejected_.Increment();
    return future;
  }
  Request request;
  request.query = &query;
  request.k = k;
  request.admitted = arrival;
  if (options_.trace_sample_rate > 0.0 && sampler_.Sample()) {
    request.trace.trace_id = obs::NewTraceId();
    request.trace.span_id = obs::NewSpanId();  // the root "serve" span
    request.trace.sampled = true;
  }
  if (cache_ != nullptr && !shutdown_.load()) {
    // Fingerprint + probe on the client's thread, ahead of queue admission:
    // a hit resolves here and never occupies batch capacity, so hot-query
    // traffic cannot crowd out cold queries (and the dispatcher never
    // serializes behind cache work).
    request.cacheable = true;
    std::vector<search::TupleHit> cached;
    bool hit = false;
    {
      obs::ScopedTraceContext trace_scope(request.trace);
      obs::Span probe_span("cache_probe");
      request.cache_key = {search_->QueryFingerprint(query), k,
                           cache_config_hash_};
      request.snapshot_hash = search_->LakeStateHash();
      hit = cache_->Lookup(request.cache_key, request.snapshot_hash, &cached);
    }
    if (hit) {
      submitted_.Increment();
      ObserveCompletion(request, std::chrono::steady_clock::now());
      promise.set_value(std::move(cached));
      return future;
    }
  }
  request.promise = std::move(promise);
  if (shutdown_.load() || !queue_.Push(std::move(request))) {
    // Push only consumes the request on success, so the promise is still
    // ours to resolve when the queue was closed under us.
    request.promise.set_value(
        Status::FailedPrecondition("query server is shut down"));
    rejected_.Increment();
    return future;
  }
  submitted_.Increment();
  return future;
}

void QueryServer::DispatchLoop() {
  // Every batch's encode, index fan-out and fusion run on the server's own
  // pool.
  const ScopedExecutor scope(executor_);
  std::vector<Request> batch;
  for (;;) {
    batch.clear();
    Request first;
    if (!queue_.Pop(&first)) break;  // closed and fully drained
    batch.push_back(std::move(first));
    // Micro-batch window: wait up to batch_window_us from the FIRST pop for
    // companions, so the oldest request bounds the added latency. A closed
    // or timed-out queue just seals the batch early.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.batch_window_us);
    while (batch.size() < options_.max_batch) {
      Request next;
      if (!queue_.PopUntil(&next, deadline)) break;
      batch.push_back(std::move(next));
    }
    Dispatch(&batch);
  }
}

void QueryServer::Dispatch(std::vector<Request>* batch) {
  // Every traced request charges its time on the queue to a queue_wait
  // span; the first traced request "owns" the batch-level search span (the
  // batch runs once, so its spans can only live on one trace).
  const auto batch_start = std::chrono::steady_clock::now();
  const Request* trace_owner = nullptr;
  for (const Request& request : *batch) {
    if (!request.trace.sampled) continue;
    if (trace_owner == nullptr) trace_owner = &request;
    obs::RecordSpan(request.trace.trace_id, 0, request.trace.span_id,
                    "queue_wait", ToSteadyMicros(request.admitted),
                    ToSteadyMicros(batch_start));
  }
  std::vector<search::TupleSearch::TupleQuery> queries;
  queries.reserve(batch->size());
  for (const Request& request : *batch) {
    queries.push_back({request.query, request.k});
  }
  std::vector<TupleResult> results;
  {
    obs::ScopedTraceContext trace_scope(
        trace_owner != nullptr ? trace_owner->trace : obs::TraceContext{});
    obs::Span search_span("search");
    search_span.AddTag("batch", static_cast<uint64_t>(batch->size()));
    results = search_->SearchTuplesBatch(queries);
  }
  const auto now = std::chrono::steady_clock::now();
  batches_.Increment();
  batch_occupancy_.Record(static_cast<double>(batch->size()));
  served_.Increment(batch->size());
  for (const Request& request : *batch) {
    ObserveCompletion(request, now);
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& request = (*batch)[i];
    if (cache_ != nullptr && request.cacheable && results[i].ok()) {
      // Populate before resolving so a client that immediately re-issues
      // the query hits. The insert copies; the move below stays valid.
      cache_->Insert(request.cache_key, request.snapshot_hash,
                     results[i].value());
    }
    request.promise.set_value(std::move(results[i]));
  }
}

void QueryServer::ObserveCompletion(
    const Request& request, std::chrono::steady_clock::time_point done) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(done - request.admitted)
          .count();
  latency_ms_.Record(latency_ms);
  if (request.trace.sampled) {
    // The root span closes when the request resolves; children (cache
    // probe, queue wait, search) recorded earlier parent under its id.
    obs::RecordSpan(request.trace.trace_id, request.trace.span_id, 0, "serve",
                    ToSteadyMicros(request.admitted), ToSteadyMicros(done));
  }
  if (options_.slow_query_ms >= 0.0 && latency_ms >= options_.slow_query_ms) {
    slow_queries_.Increment();
    std::string tree;
    if (request.trace.sampled) {
      tree = "\n" + obs::RenderSpanTree(
                        request.trace.trace_id,
                        obs::SpanCollector::Global().CollectTrace(
                            request.trace.trace_id));
    }
    DUST_LOG(Warning) << "slow query: " << latency_ms << " ms >= "
                      << options_.slow_query_ms << " ms threshold, trace_id=0x"
                      << std::hex << request.trace.trace_id << std::dec
                      << tree;
  }
}

void QueryServer::Shutdown() {
  readiness_.store(Readiness::kDraining, std::memory_order_release);
  shutdown_.store(true);
  queue_.Close();
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

QueryServerStats QueryServer::stats() const {
  QueryServerStats out;
  out.submitted = submitted_.value();
  out.served = served_.value();
  out.rejected = rejected_.value();
  out.batches = batches_.value();
  out.mean_batch_size =
      out.batches == 0
          ? 0.0
          : static_cast<double>(out.served) / static_cast<double>(out.batches);
  // Histogram-backed quantiles: O(buckets) whatever the uptime, unlike the
  // old reservoir that copied and sorted every remembered sample.
  out.p50_ms = latency_ms_.Quantile(0.50);
  out.p95_ms = latency_ms_.Quantile(0.95);
  out.p99_ms = latency_ms_.Quantile(0.99);
  out.max_ms = latency_ms_.max();
  out.queue_depth = queue_.size();
  out.max_queue_depth = queue_.max_depth();
  if (cache_ != nullptr) {
    out.cache_hits = cache_->hits();
    out.cache_misses = cache_->misses();
    out.cache_evictions = cache_->evictions();
    out.cache_invalidations = cache_->invalidations();
    out.cache_entries = cache_->entries();
    out.cache_bytes = cache_->bytes();
    const uint64_t probes = out.cache_hits + out.cache_misses;
    out.cache_hit_rate =
        probes == 0 ? 0.0
                    : static_cast<double>(out.cache_hits) /
                          static_cast<double>(probes);
  }
  return out;
}

}  // namespace dust::serve

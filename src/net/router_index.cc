#include "net/router_index.h"

#include <chrono>
#include <utility>

#include "io/index_io.h"
#include "obs/trace.h"
#include "serve/executor.h"

namespace dust::net {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

RouterIndex::RouterIndex(RouterOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<RouterIndex>> RouterIndex::Connect(
    const std::vector<std::string>& endpoints, RouterOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("router needs at least one shard endpoint");
  }
  std::unique_ptr<RouterIndex> router(new RouterIndex(options));
  for (const std::string& endpoint : endpoints) {
    auto shard = std::make_unique<Shard>();
    DUST_RETURN_IF_ERROR(ParseEndpoint(endpoint, &shard->host, &shard->port));
    shard->label = shard->host + ":" + std::to_string(shard->port);
    router->shards_.push_back(std::move(shard));
  }
  // Fetch every shard's INFO and hold the topology to it: dim and metric
  // must agree or merged distances would be meaningless.
  for (size_t s = 0; s < router->shards_.size(); ++s) {
    Frame response;
    Status called = router->CallShard(s, MessageType::kInfoRequest, "",
                                      MessageType::kInfoResponse, &response);
    if (!called.ok()) {
      return Status(called.code(), "shard " + router->shards_[s]->label +
                                       ": " + called.message());
    }
    InfoMessage info;
    DUST_RETURN_IF_ERROR(DecodeInfo(response.payload, &info));
    la::Metric metric = la::Metric::kCosine;
    DUST_RETURN_IF_ERROR(io::MetricFromTag(info.metric_tag, &metric));
    if (s == 0) {
      router->dim_ = static_cast<size_t>(info.dim);
      router->metric_ = metric;
    } else if (info.dim != router->dim_ || metric != router->metric_) {
      return Status::FailedPrecondition(
          "shard " + router->shards_[s]->label +
          " disagrees with the topology on dim/metric");
    }
    router->shards_[s]->size = static_cast<size_t>(info.size);
    router->total_ += static_cast<size_t>(info.size);
  }
  return {std::move(router)};
}

Status RouterIndex::CallShard(size_t s, MessageType type,
                              const std::string& payload,
                              MessageType expected_response,
                              Frame* response) const {
  const Shard& shard = *shards_[s];
  Status last = Status::Ok();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) retries_.fetch_add(1, std::memory_order_relaxed);
    rpcs_.fetch_add(1, std::memory_order_relaxed);
    // Borrow a pooled connection or dial a fresh one.
    Connection conn;
    {
      std::lock_guard<std::mutex> lock(shard.pool_mu);
      if (!shard.pool.empty()) {
        conn = std::move(shard.pool.back());
        shard.pool.pop_back();
      }
    }
    if (!conn.valid()) {
      Result<Connection> dialed =
          Connection::Dial(shard.host, shard.port, options_.connect_timeout_ms);
      if (!dialed.ok()) {
        rpc_failures_.fetch_add(1, std::memory_order_relaxed);
        last = dialed.status();
        if (last.code() == StatusCode::kUnavailable) continue;
        return last;
      }
      conn = std::move(dialed).value();
    }
    Frame request;
    request.type = type;
    request.request_id = next_request_id_.fetch_add(1);
    request.payload = payload;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.deadline_ms);
    Status called = conn.Call(request, response, deadline);
    if (called.ok() && response->type == MessageType::kError) {
      // Application-level errors arrive on a healthy stream: keep the
      // connection, surface the envelope, and never retry (the shard
      // answered; asking again would get the same answer).
      std::lock_guard<std::mutex> lock(shard.pool_mu);
      shard.pool.push_back(std::move(conn));
      return DecodeErrorEnvelope(response->payload);
    }
    if (called.ok() && response->type != expected_response) {
      called = Status::IoError("shard answered with unexpected frame type " +
                               std::to_string(static_cast<int>(
                                   response->type)));
    }
    if (called.ok()) {
      std::lock_guard<std::mutex> lock(shard.pool_mu);
      shard.pool.push_back(std::move(conn));
      return Status::Ok();
    }
    // The connection is unusable after any transport failure.
    conn.Close();
    rpc_failures_.fetch_add(1, std::memory_order_relaxed);
    last = called;
    // A pooled connection the peer retired reads as Unavailable; the retry
    // dials fresh. Deadline and protocol errors are final.
    if (last.code() != StatusCode::kUnavailable) return last;
  }
  return last;
}

void RouterIndex::Add(const la::Vec& v) {
  (void)v;
  DUST_CHECK(false && "RouterIndex is a read-only view over remote shards");
}

Status RouterIndex::SavePayload(io::IndexWriter* writer) const {
  (void)writer;
  return Status::Unimplemented(
      "a router is a live view over remote shards; save the shards");
}

Status RouterIndex::LoadPayload(io::IndexReader* reader) {
  (void)reader;
  return Status::Unimplemented("a router cannot be loaded from a file");
}

std::string RouterIndex::name() const {
  return "Router[" + std::to_string(shards_.size()) + " shards]";
}

std::vector<index::SearchHit> RouterIndex::Search(const la::Vec& query,
                                                  size_t k) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  // Captured by value: the ParallelFor lambda re-installs it on whichever
  // pool thread runs the call so shard RPC spans parent correctly.
  const obs::TraceContext trace_ctx = obs::CurrentContext();
  SearchRequestMessage request;
  request.k = k;
  request.query = query;
  const std::string payload = EncodeSearchRequest(request);
  std::vector<std::vector<index::SearchHit>> per_shard(shards_.size());
  std::atomic<size_t> failed{0};
  auto call_one = [&](size_t s) {
    obs::ScopedTraceContext trace_scope(trace_ctx);
    obs::Span rpc_span("rpc:" + shards_[s]->label);
    const std::string* body = &payload;
    std::string traced_payload;
    if (rpc_span.recording()) {
      // Sampled: re-encode this shard's copy so the remote trace parents
      // under the RPC span. Unsampled requests share one payload.
      SearchRequestMessage traced = request;
      traced.trace_id = trace_ctx.trace_id;
      traced.parent_span_id = rpc_span.span_id();
      traced.sampled = 1;
      traced_payload = EncodeSearchRequest(traced);
      body = &traced_payload;
    }
    Frame response;
    Status called = CallShard(s, MessageType::kSearchRequest, *body,
                              MessageType::kSearchResponse, &response);
    SearchResponseMessage decoded;
    if (called.ok()) called = DecodeSearchResponse(response.payload, &decoded);
    if (called.ok()) {
      per_shard[s] = std::move(decoded.hits);
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (executor_ != nullptr && shards_.size() > 1) {
    executor_->ParallelFor(shards_.size(), call_one);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) call_one(s);
  }
  if (failed.load() > 0) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
  }
  // Gather under the exact ShardedIndex merge semantics: hits are already
  // global ids, merged in shard order, finalized by (distance, id).
  std::vector<index::SearchHit> hits;
  hits.reserve(shards_.size() * k);
  for (const std::vector<index::SearchHit>& shard_hits : per_shard) {
    hits.insert(hits.end(), shard_hits.begin(), shard_hits.end());
  }
  index::FinalizeHits(&hits, k);
  return hits;
}

std::vector<std::vector<index::SearchHit>> RouterIndex::SearchBatch(
    const std::vector<la::Vec>& queries, size_t k,
    serve::Executor* executor) const {
  std::vector<std::vector<index::SearchHit>> results(queries.size());
  if (queries.empty()) return results;
  queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  const obs::TraceContext trace_ctx = obs::CurrentContext();
  SearchBatchRequestMessage request;
  request.k = k;
  request.queries = queries;
  const std::string payload = EncodeSearchBatchRequest(request);
  std::vector<std::vector<std::vector<index::SearchHit>>> per_shard(
      shards_.size());
  std::atomic<size_t> failed{0};
  auto call_one = [&](size_t s) {
    obs::ScopedTraceContext trace_scope(trace_ctx);
    obs::Span rpc_span("rpc:" + shards_[s]->label);
    const std::string* body = &payload;
    std::string traced_payload;
    if (rpc_span.recording()) {
      rpc_span.AddTag("batch", static_cast<uint64_t>(queries.size()));
      SearchBatchRequestMessage traced = request;
      traced.trace_id = trace_ctx.trace_id;
      traced.parent_span_id = rpc_span.span_id();
      traced.sampled = 1;
      traced_payload = EncodeSearchBatchRequest(traced);
      body = &traced_payload;
    }
    Frame response;
    Status called = CallShard(s, MessageType::kSearchBatchRequest, *body,
                              MessageType::kSearchBatchResponse, &response);
    SearchBatchResponseMessage decoded;
    if (called.ok()) {
      called = DecodeSearchBatchResponse(response.payload, &decoded);
    }
    if (called.ok() && decoded.results.size() != queries.size()) {
      called = Status::IoError("shard answered a different batch size");
    }
    if (called.ok()) {
      per_shard[s] = std::move(decoded.results);
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Unlike the in-process ShardedIndex (whose children already saturate
  // local cores), remote shards burn their own CPUs — fanning the batch out
  // across shards is pure parallelism for the router.
  if (executor != nullptr && shards_.size() > 1) {
    executor->ParallelFor(shards_.size(), call_one);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) call_one(s);
  }
  if (failed.load() > 0) {
    partial_results_.fetch_add(queries.size(), std::memory_order_relaxed);
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<index::SearchHit> hits;
    hits.reserve(shards_.size() * k);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (per_shard[s].empty()) continue;  // shard failed: degrade
      hits.insert(hits.end(), per_shard[s][q].begin(), per_shard[s][q].end());
    }
    index::FinalizeHits(&hits, k);
    results[q] = std::move(hits);
  }
  return results;
}

RouterStats RouterIndex::stats() const {
  RouterStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.rpcs = rpcs_.load(std::memory_order_relaxed);
  stats.rpc_failures = rpc_failures_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.partial_results = partial_results_.load(std::memory_order_relaxed);
  return stats;
}

std::string RouterIndex::FederatedMetricsText() const {
  std::string out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Frame response;
    Status called = CallShard(s, MessageType::kMetricsRequest, "",
                              MessageType::kMetricsResponse, &response);
    if (!called.ok()) {
      out += "# shard " + shards_[s]->label +
             " unreachable: " + called.ToString() + "\n";
      continue;
    }
    out += "# shard " + shards_[s]->label + "\n";
    out += InjectMetricLabel(response.payload, "shard", shards_[s]->label);
  }
  return out;
}

std::string InjectMetricLabel(const std::string& text, const std::string& key,
                              const std::string& value) {
  std::string out;
  out.reserve(text.size() + 32);
  size_t pos = 0;
  const std::string injected = key + "=\"" + value + "\"";
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') {
      out += line;
      out += '\n';
      continue;
    }
    const size_t space = line.find(' ');
    const size_t brace = line.find('{');
    if (space == std::string::npos) {
      out += line;  // not a sample line; pass through untouched
      out += '\n';
      continue;
    }
    if (brace != std::string::npos && brace < space) {
      // name{labels} value -> name{key="v",labels} value
      out += line.substr(0, brace + 1);
      out += injected;
      out += ',';
      out += line.substr(brace + 1);
    } else {
      // name value -> name{key="v"} value
      out += line.substr(0, space);
      out += '{';
      out += injected;
      out += '}';
      out += line.substr(space);
    }
    out += '\n';
  }
  return out;
}

}  // namespace dust::net

// The serve_zipf workload: QueryServer over a flat TupleSearch of the
// alg1_tus lake (PretrainedTupleEncoder, roberta, dim 64, as
// `dust_cli --serve` builds it), 2 executor threads and a 1024-entry result
// cache. Two clients in a closed loop send k = 10 queries drawn zipf(1.1)
// from a pool of 4096 seeded 5-20-row query variants; the pool is larger
// than the cache, so misses and evictions continue after warm-up.
//
// Untraced runs report the end-to-end metrics. Traced runs measure an
// untraced server and a server with trace_sample_rate = 1 on the same draws,
// in alternating segments, and read the spans the library emits from the
// global collector.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "diversify/metrics.h"
#include "embed/embedder.h"
#include "embed/tuple_encoder.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "perfbench/stats.h"
#include "perfbench/workload.h"
#include "search/tuple_search.h"
#include "serve/query_server.h"
#include "table/serialize.h"

namespace dust::perfbench {
namespace {

constexpr size_t kK = 10;
constexpr size_t kPoolSize = 4096;
constexpr size_t kMinQueryRows = 5;
constexpr size_t kMaxQueryRows = 20;
constexpr double kZipfS = 1.1;
constexpr size_t kClients = 2;
constexpr size_t kThreads = 2;
constexpr size_t kCacheEntries = 1024;
/// Bounds the warm-up should the cache never fill.
constexpr size_t kMaxWarmupRequests = 20000;
constexpr size_t kMaxDraws = 1 << 20;
/// Diversity is scored on this many fixed variants (seeded independently of
/// the run seed).
constexpr size_t kDiversityQueries = 64;
constexpr uint64_t kDiversitySeed = 1;

std::shared_ptr<embed::TupleEncoder> MakeTupleEncoder() {
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 64;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));
}

/// One answered request of the measured window.
struct Response {
  size_t variant = 0;
  double latency_ms = 0.0;
  serve::QueryServer::TupleResult result = Status::Internal("unanswered");
};

/// Counters of one server over a window (end minus start), summed over
/// the segments of a traced run.
struct WindowStats {
  double seconds = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double evictions = 0.0;
  double batches = 0.0;
  double served = 0.0;

  void Add(const WindowStats& other) {
    seconds += other.seconds;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    batches += other.batches;
    served += other.served;
  }
  double hit_rate() const {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
  double mean_batch() const { return batches > 0 ? served / batches : 0.0; }
};

/// How often the traced window reads the span collector. Each of its 8
/// stripes holds 2048 spans; the traced server records well under 1000
/// spans a second, so a stripe cannot wrap between two reads.
constexpr auto kHarvestInterval = std::chrono::seconds(1);

/// A closed loop of kClients clients sending `draws` in order: warm-up
/// requests first (unrecorded), then the measured window.
class ClosedLoop {
 public:
  ClosedLoop(serve::QueryServer* server, const std::vector<table::Table>* pool,
             const std::vector<size_t>* draws)
      : server_(server), pool_(pool), draws_(draws) {}

  /// Sends requests until the result cache is full, so the window measures
  /// the steady state with misses and evictions. Returns the requests sent.
  size_t Warmup() {
    Drive(
        [this] {
          return next_.load() >= kMaxWarmupRequests ||
                 server_->stats().cache_evictions > 0;
        },
        nullptr);
    return next_.load();
  }

  /// Runs a measured window. When given, `harvest` runs every
  /// kHarvestInterval on a watcher thread and once after the clients stop.
  WindowStats Measure(double seconds, std::vector<Response>* responses,
                      const std::function<void()>& harvest = nullptr) {
    const serve::QueryServerStats before = server_->stats();
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<bool> done{false};
    std::thread watcher;
    if (harvest) {
      watcher = std::thread([&] {
        Clock::time_point last = Clock::now();
        while (!done.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          if (Clock::now() - last >= kHarvestInterval) {
            harvest();
            last = Clock::now();
          }
        }
      });
    }
    Drive([deadline] { return Clock::now() >= deadline; }, responses);
    done.store(true);
    if (harvest) {
      watcher.join();
      harvest();
    }
    WindowStats window;
    window.seconds = MsSince(start) / 1000.0;
    const serve::QueryServerStats after = server_->stats();
    window.hits = static_cast<double>(after.cache_hits - before.cache_hits);
    window.misses =
        static_cast<double>(after.cache_misses - before.cache_misses);
    window.evictions =
        static_cast<double>(after.cache_evictions - before.cache_evictions);
    window.batches = static_cast<double>(after.batches - before.batches);
    window.served = static_cast<double>(after.served - before.served);
    return window;
  }

 private:
  /// Sends the next draws from kClients threads, each with one request in
  /// flight, until `stop()`. Records responses when given a sink.
  void Drive(const std::function<bool()>& stop,
             std::vector<Response>* responses) {
    std::vector<std::vector<Response>> per_client(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!stop()) {
          const size_t i = next_.fetch_add(1);
          if (i >= draws_->size()) {
            Log("serve_zipf: ran out of pre-drawn queries");
            break;
          }
          Response response;
          response.variant = (*draws_)[i];
          const Clock::time_point start = Clock::now();
          response.result =
              server_->Submit((*pool_)[response.variant], kK).get();
          response.latency_ms = MsSince(start);
          if (responses != nullptr) {
            per_client[c].push_back(std::move(response));
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    if (responses == nullptr) return;
    for (std::vector<Response>& client : per_client) {
      for (Response& r : client) responses->push_back(std::move(r));
    }
  }

  serve::QueryServer* server_;
  const std::vector<table::Table>* pool_;
  const std::vector<size_t>* draws_;
  std::atomic<size_t> next_{0};
};

/// `count` seeded query variants: 5-20 rows of a random query table each.
std::vector<table::Table> MakeQueries(const Lake& lake, size_t count,
                                      uint64_t seed) {
  Rng rng(seed);
  const std::vector<datagen::GeneratedTable>& queries = lake.benchmark.queries;
  std::vector<table::Table> out;
  for (size_t v = 0; v < count; ++v) {
    const table::Table& query = queries[rng.NextBelow(queries.size())].data;
    out.push_back(RowSubset(query, kMinQueryRows, kMaxQueryRows, &rng,
                            query.name() + "_v" + std::to_string(v)));
  }
  return out;
}

bool SameHits(const std::vector<search::TupleHit>& a,
              const std::vector<search::TupleHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].ref == b[i].ref) ||
        std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Sequential SearchTuplesChecked answers of pool variants, computed once
/// each, after the measured windows.
class Oracle {
 public:
  Oracle(const search::TupleSearch* search,
         const std::vector<table::Table>* pool)
      : search_(search), pool_(pool) {}

  /// The sequential hits of `variant`; nullptr (and a failure) if the
  /// sequential search itself fails.
  const std::vector<search::TupleHit>* Expected(size_t variant,
                                                Report* report) {
    auto it = expected_.find(variant);
    if (it == expected_.end()) {
      const table::Table& query = (*pool_)[variant];
      Result<std::vector<search::TupleHit>> sequential =
          search_->SearchTuplesChecked(query, kK);
      if (!sequential.ok()) {
        report->Fail(query.name() + ": sequential " +
                     sequential.status().ToString());
        return nullptr;
      }
      it = expected_.emplace(variant, std::move(sequential).value()).first;
    }
    return &it->second;
  }

 private:
  const search::TupleSearch* search_;
  const std::vector<table::Table>* pool_;
  std::map<size_t, std::vector<search::TupleHit>> expected_;
};

/// Compares every response with the sequential answer to its query, bit
/// for bit.
void CheckResponses(const std::vector<Response>& responses,
                    const std::vector<table::Table>& pool, Oracle* oracle,
                    Report* report) {
  for (const Response& response : responses) {
    ++report->attempted;
    const std::string& name = pool[response.variant].name();
    if (!response.result.ok()) {
      report->Fail(name + ": " + response.result.status().ToString());
      continue;
    }
    const std::vector<search::TupleHit>* expected =
        oracle->Expected(response.variant, report);
    if (expected != nullptr && !SameHits(response.result.value(), *expected)) {
      report->Fail(name + ": served hits differ from sequential");
    }
  }
}

/// Value of `key` in a span's "k=v,k=v" tags; 0 when absent.
double TagValue(const std::string& tags, const std::string& key) {
  const std::string needle = key + "=";
  size_t at = 0;
  while ((at = tags.find(needle, at)) != std::string::npos) {
    if (at == 0 || tags[at - 1] == ',') {
      return std::strtod(tags.c_str() + at + needle.size(), nullptr);
    }
    at += needle.size();
  }
  return 0.0;
}

/// Spans harvested from the global collector while the traced server runs.
/// The collector is a drop-oldest ring, so it is snapshotted every
/// kHarvestInterval and records are merged by span id.
class SpanHarvest {
 public:
  void Poll() {
    for (obs::SpanRecord& record : obs::SpanCollector::Global().Snapshot()) {
      const uint64_t id = record.span_id;
      spans_.emplace(id, std::move(record));
    }
  }
  const std::unordered_map<uint64_t, obs::SpanRecord>& spans() const {
    return spans_;
  }
  std::vector<obs::SpanRecord> All() const {
    std::vector<obs::SpanRecord> out;
    for (const auto& [id, record] : spans_) out.push_back(record);
    return out;
  }

 private:
  std::unordered_map<uint64_t, obs::SpanRecord> spans_;
};

/// Checks the baseline's answers to a fixed set of query variants, drawn
/// like the pool but independently of the run seed, against the expected
/// digest of their tuple refs, and scores their diversity (Eq. 1, Eq. 2)
/// when asked. Runs outside the measured window, so the figures move only
/// when the answers do.
void CheckFixedQueries(const RunOptions& options, const Lake& lake,
                       const search::TupleSearch& search,
                       const embed::TupleEncoder& encoder, Report* report) {
  double avg_diversity = 0.0;
  double min_diversity = 0.0;
  uint64_t digest = 0;
  for (const table::Table& query :
       MakeQueries(lake, kDiversityQueries, kDiversitySeed)) {
    ++report->attempted;
    Result<std::vector<search::TupleHit>> hits =
        search.SearchTuplesChecked(query, kK);
    if (!hits.ok()) {
      report->Fail(query.name() + ": " + hits.status().ToString());
      continue;
    }
    digest = FnvMix(digest, hits.value().size());
    std::vector<la::Vec> selected;
    for (const search::TupleHit& hit : hits.value()) {
      digest = FnvMix(digest, hit.ref.table_index);
      digest = FnvMix(digest, hit.ref.row_index);
      if (options.trace) continue;
      selected.push_back(encoder.EncodeSerialized(table::SerializeTableRow(
          *lake.tables[hit.ref.table_index], hit.ref.row_index)));
    }
    if (options.trace) continue;
    const diversify::DiversityScores scores = diversify::ScoreDiversity(
        encoder.EncodeTableRows(query), selected, la::Metric::kCosine);
    avg_diversity += scores.average / kDiversityQueries;
    min_diversity += scores.min / kDiversityQueries;
  }
  CheckDigest("serve_zipf fixed queries", digest,
              options.expect_queries_digest, report);
  if (!options.trace) {
    report->Set("avg_diversity", avg_diversity);
    report->Set("min_diversity", min_diversity);
  }
}

double Ms(const obs::SpanRecord& record) {
  return static_cast<double>(record.duration_us) / 1000.0;
}

/// Per-layer metrics from the traced window's spans.
void ReportLayers(const SpanHarvest& harvest, size_t lake_vectors,
                  Report* report) {
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<const obs::SpanRecord*> roots;
  // Per trace: the cache probe, the queue wait, and (for a batch owner)
  // the batch's search span.
  struct TraceParts {
    const obs::SpanRecord* probe = nullptr;
    const obs::SpanRecord* wait = nullptr;
    const obs::SpanRecord* search = nullptr;
  };
  std::unordered_map<uint64_t, TraceParts> parts;
  for (const auto& [id, record] : harvest.spans()) {
    layer_ms[record.name].push_back(Ms(record));
    if (record.name == "serve") roots.push_back(&record);
    if (record.name == "cache_probe") parts[record.trace_id].probe = &record;
    if (record.name == "queue_wait") parts[record.trace_id].wait = &record;
    if (record.name == "search") parts[record.trace_id].search = &record;
  }
  // A batch's search span lives only on its first request's trace; every
  // request of the batch ended its queue wait at the same dispatch instant,
  // which keys the batch.
  std::unordered_map<int64_t, const obs::SpanRecord*> search_by_dispatch;
  for (const auto& [trace, p] : parts) {
    if (p.search != nullptr && p.wait != nullptr) {
      search_by_dispatch[p.wait->start_us + p.wait->duration_us] = p.search;
    }
  }
  std::vector<double> unaccounted;
  for (const obs::SpanRecord* root : roots) {
    const TraceParts& p = parts[root->trace_id];
    std::vector<double> layers;
    if (p.probe != nullptr) layers.push_back(Ms(*p.probe));
    if (p.wait != nullptr) {
      layers.push_back(Ms(*p.wait));
      auto it =
          search_by_dispatch.find(p.wait->start_us + p.wait->duration_us);
      if (it != search_by_dispatch.end()) layers.push_back(Ms(*it->second));
    }
    unaccounted.push_back(UnaccountedMs(Ms(*root), layers));
  }
  // Vectors one query's rows scanned in the flat tuple index.
  std::vector<double> scanned;
  for (const auto& [id, record] : harvest.spans()) {
    if (record.name != "index_search") continue;
    auto parent = harvest.spans().find(record.parent_span_id);
    const double batch = parent == harvest.spans().end()
                             ? 1.0
                             : TagValue(parent->second.tags, "batch");
    scanned.push_back(TagValue(record.tags, "rows") *
                      static_cast<double>(lake_vectors) /
                      std::max(1.0, batch));
  }
  report->Set("serve.cache_probe.ms", Median(layer_ms["cache_probe"]));
  report->Set("serve.queue_wait.ms", Median(layer_ms["queue_wait"]));
  report->Set("search.encode.ms", Median(layer_ms["encode"]));
  report->Set("search.index_search.ms", Median(layer_ms["index_search"]));
  report->Set("search.fuse.ms", Median(layer_ms["fuse"]));
  report->Set("index.vectors_scanned", Median(scanned));
  report->Set("core.unaccounted_ms", Median(unaccounted));
  report->Set("trace.e2e_ms", Median(layer_ms["serve"]));
}

std::vector<double> Latencies(const std::vector<Response>& responses) {
  std::vector<double> ms;
  for (const Response& r : responses) ms.push_back(r.latency_ms);
  return ms;
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  const Lake lake = MakeLake(8, 1000, 2);
  const std::vector<table::Table> pool =
      MakeQueries(lake, kPoolSize, options.seed);
  std::vector<size_t> draws(kMaxDraws);
  ZipfSampler zipf(kPoolSize, kZipfS, FnvMix(options.seed, 1));
  for (size_t& d : draws) d = zipf.Next();
  Log("serve_zipf: %zu lake tables, %zu tuples, pool %zu", lake.tables.size(),
      lake.rows, pool.size());

  const std::shared_ptr<embed::TupleEncoder> encoder = MakeTupleEncoder();
  const auto make_search = [&] {
    return std::make_unique<search::TupleSearch>(encoder);
  };
  const auto index_lake = [&](search::TupleSearch& s) {
    s.IndexLake(lake.tables);
  };
  std::vector<double> setup_s;
  const std::unique_ptr<search::TupleSearch> search =
      TimeSetup(make_search, index_lake, &setup_s);

  serve::QueryServerOptions server_options;
  server_options.threads = kThreads;
  server_options.cache_entries = kCacheEntries;
  // A server at `sample_rate`, warmed up until its cache is full.
  const auto warm_server = [&](double sample_rate) {
    server_options.trace_sample_rate = sample_rate;
    auto server = std::make_unique<serve::QueryServer>(search.get(),
                                                       server_options);
    auto loop = std::make_unique<ClosedLoop>(server.get(), &pool, &draws);
    Log("serve_zipf: cache full after %zu warm-up requests", loop->Warmup());
    return std::make_pair(std::move(server), std::move(loop));
  };

  Oracle oracle(search.get(), &pool);
  std::vector<Response> responses;
  if (!options.trace) {
    auto [server, loop] = warm_server(0.0);
    const WindowStats window = loop->Measure(options.seconds, &responses);
    server->Shutdown();
    // Taken before the sequential check, whose OpenMP threads and answers
    // are the benchmark's, not the server's.
    const double peak_rss_mb = PeakRssMb();
    const std::vector<double> latency_ms = Latencies(responses);
    LogWindow(options.workload, latency_ms, window.seconds);
    Log("serve_zipf: hit rate %.3f, mean batch %.2f", window.hit_rate(),
        window.mean_batch());
    CheckResponses(responses, pool, &oracle, report);
    Log("serve_zipf: responses checked against sequential search");
    CheckFixedQueries(options, lake, *search, *encoder, report);

    TimeSetup(make_search, index_lake, &setup_s);
    report->Set("setup_s", Median(setup_s));
    report->Set("queries_per_s",
                static_cast<double>(responses.size()) / window.seconds);
    report->Set("latency_p50_ms", Percentile(latency_ms, 50.0));
    report->Set("latency_p95_ms", Percentile(latency_ms, 95.0));
    report->Set("ok_frac",
                1.0 - static_cast<double>(report->failed) /
                          static_cast<double>(report->attempted));
    report->Set("peak_rss_mb", peak_rss_mb);
    return;
  }

  // Traced: an untraced and a traced server on the same draws, both warmed
  // up, measured in four segments in the order untraced, traced, traced,
  // untraced, so drift over the run weighs on both halves alike.
  auto [plain_server, plain] = warm_server(0.0);
  auto [traced_server, traced] = warm_server(1.0);
  obs::SpanCollector::Global().Clear();
  SpanHarvest harvest;
  std::vector<Response> untraced;
  WindowStats window;
  for (int segment = 0; segment < 4; ++segment) {
    if (segment == 1 || segment == 2) {
      window.Add(traced->Measure(options.seconds / 4, &responses,
                                 [&harvest] { harvest.Poll(); }));
    } else {
      plain->Measure(options.seconds / 4, &untraced);
    }
  }
  plain_server->Shutdown();
  traced_server->Shutdown();
  const uint64_t recorded = obs::SpanCollector::Global().recorded_total();
  if (harvest.spans().size() < recorded) {
    Log("serve_zipf: note: harvested %zu of %llu recorded spans",
        harvest.spans().size(), static_cast<unsigned long long>(recorded));
  }
  CheckResponses(untraced, pool, &oracle, report);
  CheckResponses(responses, pool, &oracle, report);
  Log("serve_zipf: responses checked against sequential search");
  CheckFixedQueries(options, lake, *search, *encoder, report);

  ReportLayers(harvest, search->lake_live_vectors(), report);
  report->Set("serve.cache.hit_rate", window.hit_rate());
  report->Set("serve.cache.evictions", window.evictions);
  report->Set("serve.batch_size.mean", window.mean_batch());
  report->Set("serve.batches", window.batches);
  report->Set("trace.untraced_ms", Median(Latencies(untraced)));
  report->Set("trace.overhead_pct",
              100.0 * (Mean(Latencies(responses)) - Mean(Latencies(untraced))) /
                  Mean(Latencies(untraced)));
  if (!options.trace_out.empty()) {
    Status written = obs::WriteChromeTrace(options.trace_out, harvest.All(),
                                           "dust_perfbench serve_zipf");
    if (!written.ok()) {
      Log("trace export: %s", written.ToString().c_str());
    }
  }
}

}  // namespace dust::perfbench

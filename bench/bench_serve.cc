// bench_serve — throughput, tail latency, and SLO attainment of the async
// query server (google-benchmark). The CI bench-smoke job runs BM_Serve*
// with --benchmark_out=BENCH_serve.json, asserts the zipfian/SLO fields are
// present (serve-slo step), and uploads the JSON per PR.
//
// Serving models over a closed-loop client fleet (every client keeps
// exactly one request in flight):
//   - BM_ServeThreadPerRequest: the pre-executor baseline — each request is
//     answered by a freshly spawned std::thread running the sequential
//     SearchTuplesChecked path (thread creation on every query, no
//     batching);
//   - BM_ServeQueryServer: the QueryServer — bounded admission queue,
//     micro-batching window, one SearchTuplesBatch per batch on a shared
//     fixed-size executor (zero per-query thread creation).
//
// Traffic-shaped workloads (the numbers users actually feel):
//   - BM_ServeClosedLoopSlo: closed-loop fleet drawing queries from the
//     pool either uniformly or zipfian (s = 1.1, seeded/deterministic —
//     skewed repetition is what production traffic looks like), with the
//     result cache on or off. Reports SLO attainment (fraction of requests
//     under 10/25/50 ms), cache hit rate, and latency percentiles.
//   - BM_ServeOpenLoopSlo: fixed-arrival-rate generator (open loop), so
//     queueing delay is charged to latency instead of silently slowing the
//     offered load (no coordinated omission). Same SLO/cache counters.
// items_per_second is QPS. Acceptance bars: the micro-batched server beats
// thread-per-request at >= 8 clients, and zipfian closed-loop with the
// cache on beats cache-off by >= 1.5x QPS at equal-or-better p99.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "search/tuple_search.h"
#include "serve/bounded_queue.h"
#include "serve/query_server.h"
#include "table/table.h"
#include "util/rng.h"

using namespace dust;

namespace {

constexpr size_t kRequestsPerIteration = 128;
constexpr size_t kSloRequestsPerIteration = 256;
constexpr size_t kK = 10;
constexpr double kZipfS = 1.1;
const std::vector<double> kSloThresholdsMs = {10.0, 25.0, 50.0};

table::Table MakeWordTable(const std::string& name, size_t rows,
                           uint64_t seed) {
  Rng rng(seed);
  table::Table t(name);
  std::vector<table::Value> cities, countries, codes;
  for (size_t r = 0; r < rows; ++r) {
    cities.emplace_back("city" + std::to_string(rng.NextBelow(800)));
    countries.emplace_back("country" + std::to_string(rng.NextBelow(60)));
    codes.emplace_back("code" + std::to_string(rng.NextBelow(2000)));
  }
  DUST_CHECK(t.AddColumn("city", std::move(cities)).ok());
  DUST_CHECK(t.AddColumn("country", std::move(countries)).ok());
  DUST_CHECK(t.AddColumn("code", std::move(codes)).ok());
  return t;
}

/// One lake + indexed TupleSearch + query tables, built once per process.
struct ServeWorkload {
  std::vector<table::Table> lake_storage;
  std::vector<table::Table> queries;
  std::unique_ptr<search::TupleSearch> search;
};

const ServeWorkload& Workload() {
  static const ServeWorkload* workload = [] {
    auto* w = new ServeWorkload();
    for (size_t t = 0; t < 48; ++t) {
      w->lake_storage.push_back(
          MakeWordTable("lake" + std::to_string(t), 40, 300 + t));
    }
    // 64 distinct queries: enough pool for a zipfian head and tail.
    for (size_t q = 0; q < 64; ++q) {
      w->queries.push_back(MakeWordTable("q" + std::to_string(q), 6, 7000 + q));
    }
    w->search =
        std::make_unique<search::TupleSearch>(bench::MakeBenchEncoder());
    std::vector<const table::Table*> lake;
    for (const table::Table& t : w->lake_storage) lake.push_back(&t);
    w->search->IndexLake(lake);
    return w;
  }();
  return *workload;
}

/// Deterministic zipfian sampler over ranks [0, n): P(rank) ~ 1/(rank+1)^s.
/// Precomputed CDF + binary search; each client thread owns one (seeded by
/// client id) so runs are reproducible regardless of interleaving.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double total = 0.0;
    for (size_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Next() {
    const double u = rng_.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// Closed-loop fleet: `clients` threads each keep one request in flight
/// until `total` requests have completed via `one_request(request_index)`.
void RunClosedLoop(size_t clients, size_t total,
                   const std::function<void(size_t)>& one_request) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        one_request(i);
      }
    });
  }
  for (std::thread& t : fleet) t.join();
}

/// Fraction of `latencies_ms` at or under each SLO threshold, plus p99,
/// written into the benchmark counters.
void ReportSlo(benchmark::State& state, std::vector<double> latencies_ms) {
  if (latencies_ms.empty()) return;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double n = static_cast<double>(latencies_ms.size());
  for (double threshold : kSloThresholdsMs) {
    const double under = static_cast<double>(
        std::upper_bound(latencies_ms.begin(), latencies_ms.end(), threshold) -
        latencies_ms.begin());
    state.counters["slo_" + std::to_string(static_cast<int>(threshold)) +
                   "ms"] = under / n;
  }
  state.counters["p99_ms"] =
      latencies_ms[static_cast<size_t>(std::ceil(0.99 * n)) - 1];
}

/// Baseline: spawn-join one std::thread per request (what serving looked
/// like before the shared executor existed).
void BM_ServeThreadPerRequest(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const ServeWorkload& w = Workload();
  for (auto _ : state) {
    RunClosedLoop(clients, kRequestsPerIteration, [&](size_t i) {
      const table::Table& query = w.queries[i % w.queries.size()];
      std::vector<search::TupleHit> hits;
      std::thread worker([&] {
        hits = w.search->SearchTuplesChecked(query, kK).ValueOrDie();
      });
      worker.join();
      benchmark::DoNotOptimize(hits.size());
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequestsPerIteration));
  state.SetLabel("clients=" + std::to_string(clients));
}
BENCHMARK(BM_ServeThreadPerRequest)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The async server: executor threads x batching window, 8 or 16 clients.
/// range: (threads, batch_window_us, clients).
void BM_ServeQueryServer(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t window_us = static_cast<size_t>(state.range(1));
  const size_t clients = static_cast<size_t>(state.range(2));
  const ServeWorkload& w = Workload();
  serve::QueryServerOptions options;
  options.threads = threads;
  options.batch_window_us = window_us;
  options.max_batch = 32;
  options.queue_capacity = 256;
  serve::QueryServer server(w.search.get(), options);
  for (auto _ : state) {
    RunClosedLoop(clients, kRequestsPerIteration, [&](size_t i) {
      const table::Table& query = w.queries[i % w.queries.size()];
      auto result = server.Submit(query, kK).get();
      benchmark::DoNotOptimize(result.ok());
    });
  }
  server.Shutdown();
  const serve::QueryServerStats stats = server.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequestsPerIteration));
  state.counters["p50_ms"] = stats.p50_ms;
  state.counters["p95_ms"] = stats.p95_ms;
  state.counters["p99_ms"] = stats.p99_ms;
  state.counters["mean_batch"] = stats.mean_batch_size;
  state.SetLabel("threads=" + std::to_string(threads) +
                 " window=" + std::to_string(window_us) +
                 "us clients=" + std::to_string(clients));
}
BENCHMARK(BM_ServeQueryServer)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 2000}, {8}})
    ->Args({8, 2000, 16})
    ->Args({8, 0, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Traffic-shaped closed loop: zipfian-or-uniform query draws, cache on or
/// off, SLO attainment + cache hit rate reported. args: (zipf, cache
/// entries, clients). One server (and cache) persists across iterations —
/// exactly the steady state a long-running deployment serves from.
void BM_ServeClosedLoopSlo(benchmark::State& state) {
  const bool zipf = state.range(0) != 0;
  const size_t cache_entries = static_cast<size_t>(state.range(1));
  const size_t clients = static_cast<size_t>(state.range(2));
  const ServeWorkload& w = Workload();
  serve::QueryServerOptions options;
  options.threads = 4;
  options.batch_window_us = 200;
  options.max_batch = 32;
  options.queue_capacity = 256;
  options.cache_entries = cache_entries;
  serve::QueryServer server(w.search.get(), options);
  std::vector<double> all_latencies_ms;
  for (auto _ : state) {
    // Per-request latency slots are disjoint, so clients write lock-free.
    std::vector<double> latencies_ms(kSloRequestsPerIteration, 0.0);
    // Pre-drawn, deterministic query sequence: the same draws regardless of
    // client interleaving or cache setting (fair cached-vs-uncached runs).
    std::vector<size_t> draws(kSloRequestsPerIteration);
    ZipfSampler sampler(w.queries.size(), kZipfS, 42);
    Rng uniform(42);
    for (size_t i = 0; i < draws.size(); ++i) {
      draws[i] = zipf ? sampler.Next()
                      : static_cast<size_t>(uniform.NextBelow(
                            w.queries.size()));
    }
    RunClosedLoop(clients, kSloRequestsPerIteration, [&](size_t i) {
      const table::Table& query = w.queries[draws[i]];
      const auto start = std::chrono::steady_clock::now();
      auto result = server.Submit(query, kK).get();
      latencies_ms[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      benchmark::DoNotOptimize(result.ok());
    });
    all_latencies_ms.insert(all_latencies_ms.end(), latencies_ms.begin(),
                            latencies_ms.end());
  }
  server.Shutdown();
  const serve::QueryServerStats stats = server.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSloRequestsPerIteration));
  ReportSlo(state, std::move(all_latencies_ms));
  state.counters["cache_hit_rate"] = stats.cache_hit_rate;
  state.counters["p50_ms"] = stats.p50_ms;
  state.counters["p95_ms"] = stats.p95_ms;
  state.SetLabel(std::string(zipf ? "zipf" : "uniform") +
                 " cache=" + std::to_string(cache_entries) +
                 " clients=" + std::to_string(clients));
}
BENCHMARK(BM_ServeClosedLoopSlo)
    ->ArgNames({"zipf", "cache", "clients"})
    // uniform/zipf x cache-off/cache-on: the four-way artifact the CI
    // serve-slo step checks (zipf+cache must show hits and the QPS win).
    ->ArgsProduct({{0, 1}, {0, 4096}, {8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Open loop: a generator issues zipfian queries at a fixed arrival rate
/// and latency is measured from the *intended* arrival time, so a slow
/// server accrues queueing delay instead of throttling the workload
/// (coordinated omission avoided). args: (arrival QPS, cache entries).
void BM_ServeOpenLoopSlo(benchmark::State& state) {
  const size_t rate_qps = static_cast<size_t>(state.range(0));
  const size_t cache_entries = static_cast<size_t>(state.range(1));
  const ServeWorkload& w = Workload();
  serve::QueryServerOptions options;
  options.threads = 4;
  options.batch_window_us = 200;
  options.max_batch = 32;
  options.queue_capacity = 1024;
  options.cache_entries = cache_entries;
  serve::QueryServer server(w.search.get(), options);
  std::vector<double> all_latencies_ms;
  for (auto _ : state) {
    const size_t total = kSloRequestsPerIteration;
    std::vector<double> latencies_ms(total, 0.0);
    std::vector<size_t> draws(total);
    ZipfSampler sampler(w.queries.size(), kZipfS, 77);
    for (size_t i = 0; i < total; ++i) draws[i] = sampler.Next();

    struct Pending {
      std::future<serve::QueryServer::TupleResult> future;
      std::chrono::steady_clock::time_point arrival;
      size_t index = 0;
    };
    // Harvest through the serving stack's own bounded queue: waiters pull
    // pending futures so the generator never blocks on completions.
    serve::BoundedQueue<Pending> pending(total);
    std::vector<std::thread> waiters;
    const size_t kWaiters = 16;
    waiters.reserve(kWaiters);
    for (size_t t = 0; t < kWaiters; ++t) {
      waiters.emplace_back([&] {
        Pending p;
        while (pending.Pop(&p)) {
          p.future.get();
          latencies_ms[p.index] = std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() -
                                      p.arrival)
                                      .count();
        }
      });
    }
    const auto period =
        std::chrono::microseconds(1000000 / std::max<size_t>(1, rate_qps));
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < total; ++i) {
      const auto arrival = start + period * i;
      std::this_thread::sleep_until(arrival);
      Pending p;
      p.future = server.Submit(w.queries[draws[i]], kK);
      p.arrival = arrival;  // intended arrival, not post-Submit
      p.index = i;
      pending.Push(std::move(p));
    }
    pending.Close();
    for (std::thread& t : waiters) t.join();
    all_latencies_ms.insert(all_latencies_ms.end(), latencies_ms.begin(),
                            latencies_ms.end());
  }
  server.Shutdown();
  const serve::QueryServerStats stats = server.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSloRequestsPerIteration));
  ReportSlo(state, std::move(all_latencies_ms));
  state.counters["cache_hit_rate"] = stats.cache_hit_rate;
  state.counters["offered_qps"] = static_cast<double>(rate_qps);
  state.SetLabel("open-loop zipf rate=" + std::to_string(rate_qps) +
                 "qps cache=" + std::to_string(cache_entries));
}
BENCHMARK(BM_ServeOpenLoopSlo)
    ->ArgNames({"rate", "cache"})
    ->ArgsProduct({{500, 2000}, {0, 4096}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

// Tests for src/serve and the executor-routed search paths: Executor
// ParallelFor semantics (the range form's claims and grain, nesting, the
// Default() pool and its affinity-mask sizing), ScopedExecutor and
// Executor::Current() (nesting, loop bodies see their pool, a served batch
// runs on the server's pool),
// BoundedQueue backpressure (blocks, never drops) and close-drains
// semantics, QueryServer parity with sequential SearchTuplesChecked under
// concurrent clients, per-request rejection of malformed queries, shutdown
// completing in-flight requests, bit-identical SearchBatch and table-rerank
// results on the default pool, a dedicated pool, and inline, the Metrics
// instruments (histogram quantiles stay O(buckets) regardless of sample
// count, text exposition format), the ResultCache (LRU order, byte budget,
// staleness invalidation), and QueryServer cache semantics (hits
// bit-identical to uncached serving, zero stale hits after re-indexing,
// counters reconcile).
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "embed/embedder.h"
#include "embed/tuple_encoder.h"
#include "obs/trace.h"
#include "search/embedding_search.h"
#include "search/tuple_search.h"
#include "serve/bounded_queue.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "serve/query_server.h"
#include "serve/result_cache.h"
#include "table/table.h"
#include "util/rng.h"

namespace dust::serve {
namespace {

using search::TupleHit;
using search::TupleSearch;
using table::Table;
using table::Value;

// --- Executor ---------------------------------------------------------------

TEST(ExecutorTest, NestedParallelForDoesNotDeadlock) {
  // Inner loops run from inside pool tasks while every worker may already
  // be busy; the caller-participates design must still complete them.
  Executor executor(2);
  std::atomic<size_t> total{0};
  executor.ParallelFor(8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      executor.ParallelFor(64, 1, [&](size_t b, size_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ExecutorTest, ZeroThreadsRunsInline) {
  Executor executor(0);
  EXPECT_EQ(executor.num_threads(), 0u);
  std::vector<int> order;
  executor.ParallelFor(4, 1, [&](size_t begin, size_t end) {
    // inline => sequential, in order
    for (size_t i = begin; i < end; ++i) order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ExecutorTest, DefaultIsOneLivePoolThatNestsParallelFor) {
  Executor& pool = Executor::Default();
  EXPECT_EQ(&pool, &Executor::Default());
  EXPECT_GE(pool.num_threads(), 1u);
  // A loop body on the default pool fans out on that same pool, as an
  // index SearchBatch issued from a pooled loop does; the
  // caller-participates design completes it.
  std::atomic<size_t> total{0};
  pool.ParallelFor(4, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(32, 1,
                       [&](size_t b, size_t e) { total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(total.load(), 4u * 32u);
}

TEST(ExecutorTest, DestructorCompletesQueuedTasks) {
  // ParallelFor may return while its helper tasks still sit in the queue
  // (the caller ran every index itself). The destructor drains them; they
  // find their loop finished and never touch its body.
  std::atomic<size_t> counter{0};
  {
    Executor executor(1);
    for (int i = 0; i < 50; ++i) {
      executor.ParallelFor(2, 1, [&](size_t begin, size_t end) {
        counter.fetch_add(end - begin);
      });
    }
  }  // destructor must drain, not abandon
  EXPECT_EQ(counter.load(), 100u);
}

// --- Executor: the range form ----------------------------------------------

/// The ranges one range-form loop ran, each checked against [0, n).
struct RangeLog {
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
};

TEST(ExecutorTest, RangeFormRunsEveryIndexExactlyOnce) {
  Executor executor(4);
  for (size_t grain : {1u, 7u, 64u}) {
    for (size_t n : {size_t{0}, size_t{1}, grain - 1, grain, grain + 1,
                     size_t{10007}}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      RangeLog log;
      executor.ParallelFor(n, grain, [&](size_t begin, size_t end) {
        {
          std::lock_guard<std::mutex> lock(log.mu);
          log.ranges.emplace_back(begin, end);
        }
        for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "grain " << grain << " n " << n << " index " << i;
      }
      EXPECT_EQ(log.ranges.empty(), n == 0) << "grain " << grain;
      for (const auto& [begin, end] : log.ranges) {
        EXPECT_LT(begin, end) << "grain " << grain << " n " << n;
        EXPECT_LE(end, n) << "grain " << grain << " n " << n;
        // Only the range that ends the loop may be shorter than a grain.
        if (end - begin < grain) {
          EXPECT_EQ(end, n) << "grain " << grain << " n " << n;
        }
      }
    }
  }
}

TEST(ExecutorTest, RangeOfAtMostOneGrainRunsOnTheCaller) {
  // A fresh pool has run no helper; a loop of n <= grain must not wake one.
  Executor executor(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t grain : {1u, 7u, 64u}) {
    for (size_t n : {size_t{1}, grain - 1, grain}) {
      if (n == 0) continue;
      RangeLog log;
      bool on_caller = true;
      executor.ParallelFor(n, grain, [&](size_t begin, size_t end) {
        on_caller = on_caller && std::this_thread::get_id() == caller;
        log.ranges.emplace_back(begin, end);
      });
      EXPECT_TRUE(on_caller) << "grain " << grain << " n " << n;
      EXPECT_EQ(log.ranges,
                (std::vector<std::pair<size_t, size_t>>{{0, n}}))
          << "grain " << grain << " n " << n;
    }
  }
  EXPECT_EQ(executor.tasks_run(), 0u);
}

TEST(ExecutorTest, NestedRangeLoopsCompleteOnDefaultAndInline) {
  // The inner loops run from inside pool tasks of the same pool, as a flat
  // index scan does inside a pooled SearchBatch; each caller drains its own.
  Executor inline_executor(0);
  for (Executor* executor : {&Executor::Default(), &inline_executor}) {
    std::atomic<size_t> total{0};
    executor->ParallelFor(40, 3, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        executor->ParallelFor(1000, 16, [&](size_t b, size_t e) {
          total.fetch_add(e - b);
        });
      }
    });
    EXPECT_EQ(total.load(), 40u * 1000u) << executor->num_threads();
  }
  // Executor(0) runs the whole range as one call on the caller.
  RangeLog log;
  inline_executor.ParallelFor(10007, 7, [&](size_t begin, size_t end) {
    log.ranges.emplace_back(begin, end);
  });
  EXPECT_EQ(log.ranges,
            (std::vector<std::pair<size_t, size_t>>{{0, 10007}}));
}

#if defined(__linux__)
TEST(ExecutorTest, AvailableCpusFollowsTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  const size_t allowed = static_cast<size_t>(CPU_COUNT(&original));
  EXPECT_EQ(Executor::AvailableCpus(), allowed);
  // Pin this thread to the first CPU it may use, then restore its mask.
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = Executor::AvailableCpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(Executor::AvailableCpus(), allowed);
}
#endif

// --- ScopedExecutor and Executor::Current() ---------------------------------

TEST(ScopedExecutorTest, CurrentIsDefaultWhenNoScopeIsOpen) {
  EXPECT_EQ(&Executor::Current(), &Executor::Default());
  // A scope is the opening thread's own: a thread started inside it sees
  // the default pool.
  Executor pool(1);
  const ScopedExecutor scope(pool);
  Executor* on_other_thread = nullptr;
  std::thread([&] { on_other_thread = &Executor::Current(); }).join();
  EXPECT_EQ(on_other_thread, &Executor::Default());
  EXPECT_EQ(&Executor::Current(), &pool);
}

TEST(ScopedExecutorTest, NestedScopesRestoreTheOuterPool) {
  Executor outer(1);
  Executor inner(0);
  {
    const ScopedExecutor outer_scope(outer);
    EXPECT_EQ(&Executor::Current(), &outer);
    {
      const ScopedExecutor inner_scope(inner);
      EXPECT_EQ(&Executor::Current(), &inner);
    }
    EXPECT_EQ(&Executor::Current(), &outer);
  }
  EXPECT_EQ(&Executor::Current(), &Executor::Default());
}

TEST(ScopedExecutorTest, EveryIndexOfALoopSeesItsPool) {
  Executor pool(4);
  Executor other(2);
  const std::thread::id caller = std::this_thread::get_id();
  // The caller's own scope: none, the loop's pool, or another pool.
  const std::pair<Executor*, const char*> outers[] = {
      {nullptr, "no scope"}, {&pool, "the loop's pool"}, {&other, "another"}};
  for (const auto& [outer, what] : outers) {
    std::unique_ptr<ScopedExecutor> scope;
    if (outer != nullptr) scope = std::make_unique<ScopedExecutor>(*outer);
    Executor* const before = &Executor::Current();
    std::vector<Executor*> seen(4000, nullptr);
    std::atomic<bool> caller_ran{false};
    std::atomic<bool> helper_ran{false};
    pool.ParallelFor(seen.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) seen[i] = &Executor::Current();
      const bool on_caller = std::this_thread::get_id() == caller;
      (on_caller ? caller_ran : helper_ran).store(true);
      // Hold each side's first range until the other side has run one, so
      // both the caller and a helper are checked.
      const std::atomic<bool>& other_side =
          on_caller ? helper_ran : caller_ran;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!other_side.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], &pool) << what << ": index " << i;
    }
    EXPECT_TRUE(caller_ran.load()) << what;
    EXPECT_TRUE(helper_ran.load()) << what;
    EXPECT_EQ(&Executor::Current(), before) << what;
  }
}

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, PushBlocksWhenFullInsteadOfDropping) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::promise<void> pushed;
  std::future<void> pushed_future = pushed.get_future();
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(3));  // must block until a slot frees up
    pushed.set_value();
  });
  // The producer must still be blocked while the queue is full.
  EXPECT_EQ(pushed_future.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  pushed_future.get();  // unblocked by the pop; the item was not dropped
  producer.join();
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(queue.max_depth(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsAdmittedItemsThenReportsEmpty) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // closed: no new admissions
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // drained
}

TEST(BoundedQueueTest, PushAfterCloseRejectsImmediatelyLeavingItemIntact) {
  // Pins the post-Close producer contract: Push on a closed queue returns
  // false without blocking — even when the queue is full, which would
  // otherwise park the producer forever — and leaves `item` with its value
  // so the producer can complete the request itself.
  BoundedQueue<std::string> queue(1);
  ASSERT_TRUE(queue.Push(std::string("admitted")));  // queue now full
  queue.Close();
  std::string rejected = "survives-close";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.Push(std::move(rejected)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));  // returned, did not block
  EXPECT_EQ(rejected, "survives-close");        // not moved-from, not lost
  // The item admitted before Close still drains; the rejected one never
  // entered the queue or its counters.
  std::string out;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, "admitted");
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_EQ(queue.total_pushed(), 1u);
}

TEST(BoundedQueueTest, PopUntilTimesOutOnEmptyQueue) {
  BoundedQueue<int> queue(4);
  int out = 0;
  EXPECT_FALSE(queue.PopUntil(&out, std::chrono::steady_clock::now() +
                                        std::chrono::milliseconds(10)));
  ASSERT_TRUE(queue.Push(7));
  // A past deadline still delivers an already-queued item (try-pop).
  EXPECT_TRUE(queue.PopUntil(&out, std::chrono::steady_clock::now()));
  EXPECT_EQ(out, 7);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(3);
  EXPECT_EQ(g.value(), 12);
}

TEST(MetricsTest, HistogramQuantilesFromKnownDistribution) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  // 100 samples spread evenly across [0, 10): 10 per unit interval.
  for (int i = 0; i < 100; ++i) h.Record(i / 10.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 495.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 9.9);
  // Uniform on [0, 10): true p50 is 4.95; rank 50 interpolates within the
  // (4, 8] bucket to 4.9.
  EXPECT_NEAR(h.Quantile(0.50), 4.95, 0.5);
  // Boundary semantics: a sample exactly on a bound counts into that
  // bound's bucket (le="1" covers 1.0), so buckets hold 11/10/20/40/19.
  EXPECT_EQ(h.bucket_value(0), 11u);
  EXPECT_EQ(h.bucket_value(1), 10u);
  EXPECT_NEAR(h.Quantile(0.90), 9.0, 1.0);
  // No quantile may exceed the largest observed sample, even though the
  // overflow bucket has no upper edge.
  EXPECT_LE(h.Quantile(0.999), h.max());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(MetricsTest, HistogramQuantileCostIsBucketsNotSamples) {
  // Regression for the old latency reservoir, whose stats() copied and
  // sorted every remembered sample (O(uptime)). The histogram's footprint
  // is structural: the bucket count is fixed at construction, so recording
  // 200k samples changes no shape a quantile pass iterates over.
  Histogram h(Histogram::LatencyBoundsMs());
  const size_t fixed_buckets = h.num_buckets();
  EXPECT_EQ(fixed_buckets, Histogram::LatencyBoundsMs().size() + 1);
  Rng rng(5);
  for (size_t i = 0; i < 200000; ++i) {
    h.Record(rng.NextDouble() * 100.0);
  }
  EXPECT_EQ(h.count(), 200000u);
  EXPECT_EQ(h.num_buckets(), fixed_buckets);  // unchanged by volume
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max());
}

TEST(MetricsTest, RenderTextIsPrometheusShaped) {
  Metrics metrics;
  Counter requests;
  requests.Increment(7);
  Gauge depth;
  depth.Set(3);
  Histogram latency({1.0, 10.0});
  latency.Record(0.5);
  latency.Record(5.0);
  latency.Record(50.0);
  metrics.RegisterCounter("dust_requests_total", &requests);
  metrics.RegisterGauge("dust_queue_depth", &depth);
  metrics.RegisterHistogram("dust_latency_ms", &latency);
  metrics.RegisterCallback("dust_ready", [] { return 1.0; });
  metrics.RegisterCallback("dust_synthetic_total", [] { return 4.0; });
  const std::string text = metrics.RenderText();
  EXPECT_NE(text.find("dust_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("dust_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("dust_ready 1\n"), std::string::npos);
  // Each series carries a # TYPE line; callbacks advertise as gauges unless
  // the _total suffix marks them monotone.
  EXPECT_NE(text.find("# TYPE dust_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_ready gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_synthetic_total counter\n"),
            std::string::npos);
  // Histogram buckets are cumulative: le="10" counts the le="1" sample too,
  // and +Inf counts everything.
  EXPECT_NE(text.find("dust_latency_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dust_latency_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dust_latency_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dust_latency_ms_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("dust_latency_ms_sum 55.5\n"), std::string::npos);
  // The table render carries the same instruments for humans.
  const std::string table = metrics.RenderTable();
  EXPECT_NE(table.find("dust_latency_ms"), std::string::npos);
  EXPECT_NE(table.find("count 3"), std::string::npos);
}

TEST(MetricsTest, ReadinessNames) {
  EXPECT_STREQ(ReadinessName(Readiness::kStarting), "starting");
  EXPECT_STREQ(ReadinessName(Readiness::kReady), "ready");
  EXPECT_STREQ(ReadinessName(Readiness::kDraining), "draining");
}

// --- ResultCache ------------------------------------------------------------

std::vector<TupleHit> MakeHits(size_t n, size_t table_index) {
  std::vector<TupleHit> hits;
  for (size_t i = 0; i < n; ++i) {
    hits.push_back({{table_index, i}, 1.0 - 0.01 * static_cast<double>(i)});
  }
  return hits;
}

TEST(ResultCacheTest, LookupReturnsExactInsertedHits) {
  ResultCache cache(ResultCacheOptions{});
  const ResultCache::Key key{123, 10, 456};
  const auto hits = MakeHits(5, 2);
  std::vector<TupleHit> out;
  EXPECT_FALSE(cache.Lookup(key, 99, &out));  // cold
  cache.Insert(key, 99, hits);
  ASSERT_TRUE(cache.Lookup(key, 99, &out));
  ASSERT_EQ(out.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(out[i].ref, hits[i].ref);
    EXPECT_EQ(out[i].similarity, hits[i].similarity);
  }
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ResultCacheTest, DistinctKAndConfigAreDistinctEntries) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert({1, 5, 7}, 0, MakeHits(5, 0));
  cache.Insert({1, 10, 7}, 0, MakeHits(10, 0));  // same query, larger k
  cache.Insert({1, 5, 8}, 0, MakeHits(5, 1));    // same query, other config
  EXPECT_EQ(cache.entries(), 3u);
  std::vector<TupleHit> out;
  ASSERT_TRUE(cache.Lookup({1, 10, 7}, 0, &out));
  EXPECT_EQ(out.size(), 10u);
  ASSERT_TRUE(cache.Lookup({1, 5, 8}, 0, &out));
  EXPECT_EQ(out[0].ref.table_index, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  ResultCacheOptions options;
  options.capacity_entries = 3;
  options.stripes = 1;  // single stripe => globally LRU-ordered
  ResultCache cache(options);
  cache.Insert({1, 1, 0}, 0, MakeHits(2, 1));
  cache.Insert({2, 1, 0}, 0, MakeHits(2, 2));
  cache.Insert({3, 1, 0}, 0, MakeHits(2, 3));
  std::vector<TupleHit> out;
  // Touch key 1 so key 2 becomes the LRU entry.
  ASSERT_TRUE(cache.Lookup({1, 1, 0}, 0, &out));
  cache.Insert({4, 1, 0}, 0, MakeHits(2, 4));  // over budget: evicts key 2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_FALSE(cache.Lookup({2, 1, 0}, 0, &out));
  EXPECT_TRUE(cache.Lookup({1, 1, 0}, 0, &out));
  EXPECT_TRUE(cache.Lookup({3, 1, 0}, 0, &out));
  EXPECT_TRUE(cache.Lookup({4, 1, 0}, 0, &out));
}

TEST(ResultCacheTest, ByteBudgetEvictsAndRefusesOversizedEntries) {
  ResultCacheOptions options;
  options.capacity_entries = 100;
  options.capacity_bytes = 400;  // fits one small entry, not two
  options.stripes = 1;
  ResultCache cache(options);
  cache.Insert({1, 1, 0}, 0, MakeHits(4, 1));
  EXPECT_EQ(cache.entries(), 1u);
  const size_t one_entry_bytes = cache.bytes();
  EXPECT_LE(one_entry_bytes, 400u);
  cache.Insert({2, 1, 0}, 0, MakeHits(4, 2));  // byte budget forces eviction
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  std::vector<TupleHit> out;
  EXPECT_FALSE(cache.Lookup({1, 1, 0}, 0, &out));
  EXPECT_TRUE(cache.Lookup({2, 1, 0}, 0, &out));
  // A hit list alone larger than the whole budget is simply not cached —
  // and must not wipe the resident entries to make room.
  cache.Insert({3, 1, 0}, 0, MakeHits(1000, 3));
  EXPECT_FALSE(cache.Lookup({3, 1, 0}, 0, &out));
  EXPECT_TRUE(cache.Lookup({2, 1, 0}, 0, &out));
  EXPECT_EQ(cache.bytes(), one_entry_bytes);
}

TEST(ResultCacheTest, SnapshotHashMismatchInvalidatesEntry) {
  ResultCache cache(ResultCacheOptions{});
  const ResultCache::Key key{9, 5, 1};
  cache.Insert(key, /*snapshot_hash=*/100, MakeHits(3, 0));
  std::vector<TupleHit> out;
  // The lake changed underneath: the entry must not be served, and it must
  // not linger either.
  EXPECT_FALSE(cache.Lookup(key, /*snapshot_hash=*/200, &out));
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // Re-inserted under the new snapshot it serves again.
  cache.Insert(key, 200, MakeHits(3, 1));
  EXPECT_TRUE(cache.Lookup(key, 200, &out));
  EXPECT_EQ(out[0].ref.table_index, 1u);
}

TEST(ResultCacheTest, ConcurrentMixedTrafficKeepsCountersConsistent) {
  ResultCacheOptions options;
  options.capacity_entries = 32;
  ResultCache cache(options);
  const size_t kThreads = 8;
  const size_t kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      std::vector<TupleHit> out;
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const ResultCache::Key key{rng.NextBelow(64), 5, 0};
        if (!cache.Lookup(key, 0, &out)) {
          cache.Insert(key, 0, MakeHits(3, key.query_fingerprint));
        } else {
          // A hit must carry the data its key was inserted with.
          EXPECT_EQ(out[0].ref.table_index, key.query_fingerprint);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kOpsPerThread);
  EXPECT_LE(cache.entries(), 32u + options.stripes);  // per-stripe rounding
}

// --- shared lake fixture ----------------------------------------------------

std::shared_ptr<embed::TupleEncoder> MakeTestEncoder(size_t dim = 32) {
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kRoberta,
          embed::DefaultConfigFor(embed::ModelFamily::kRoberta, dim))));
}

Table MakeWordTable(const std::string& name, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t(name);
  std::vector<Value> cities, countries;
  for (size_t r = 0; r < rows; ++r) {
    cities.emplace_back("city" + std::to_string(rng.NextBelow(200)));
    countries.emplace_back("country" + std::to_string(rng.NextBelow(40)));
  }
  EXPECT_TRUE(t.AddColumn("city", std::move(cities)).ok());
  EXPECT_TRUE(t.AddColumn("country", std::move(countries)).ok());
  return t;
}

/// Lake + queries + an IndexLake'd TupleSearch shared by the server tests.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lake_storage_ = new std::vector<Table>();
    for (size_t t = 0; t < 12; ++t) {
      lake_storage_->push_back(
          MakeWordTable("lake" + std::to_string(t), 20, 100 + t));
    }
    queries_ = new std::vector<Table>();
    for (size_t q = 0; q < 6; ++q) {
      queries_->push_back(MakeWordTable("q" + std::to_string(q), 4, 900 + q));
    }
    search_ = new TupleSearch(MakeTestEncoder());
    std::vector<const Table*> lake;
    for (const Table& t : *lake_storage_) lake.push_back(&t);
    search_->IndexLake(lake);
  }
  static void TearDownTestSuite() {
    delete search_;
    delete queries_;
    delete lake_storage_;
    search_ = nullptr;
    queries_ = nullptr;
    lake_storage_ = nullptr;
  }

  static void ExpectSameHits(const std::vector<TupleHit>& expected,
                             const std::vector<TupleHit>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].ref, actual[i].ref) << "rank " << i;
      // Bit-identical on purpose: batching and executor scheduling must not
      // perturb scoring at all.
      EXPECT_EQ(expected[i].similarity, actual[i].similarity) << "rank " << i;
    }
  }

  static std::vector<Table>* lake_storage_;
  static std::vector<Table>* queries_;
  static TupleSearch* search_;
};

std::vector<Table>* ServeFixture::lake_storage_ = nullptr;
std::vector<Table>* ServeFixture::queries_ = nullptr;
TupleSearch* ServeFixture::search_ = nullptr;

// --- TupleSearch status path ------------------------------------------------

TEST(TupleSearchCheckedTest, FailedPreconditionBeforeIndexLake) {
  TupleSearch search(MakeTestEncoder());
  Table query = MakeWordTable("q", 2, 1);
  // A server must be able to reject this request without dying.
  auto result = search.SearchTuplesChecked(query, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, CheckedRejectsZeroRowQuery) {
  Table empty("empty");
  auto result = search_->SearchTuplesChecked(empty, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeFixture, BatchMixedValidityAnswersPerRequest) {
  Table empty("empty");
  std::vector<TupleSearch::TupleQuery> batch = {
      {&(*queries_)[0], 5}, {&empty, 5}, {&(*queries_)[1], 5}};
  Executor executor(2);
  const ScopedExecutor scope(executor);
  auto results = search_->SearchTuplesBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[2].ok());
  ExpectSameHits(search_->SearchTuplesChecked((*queries_)[0], 5).ValueOrDie(),
                 results[0].value());
  ExpectSameHits(search_->SearchTuplesChecked((*queries_)[1], 5).ValueOrDie(),
                 results[2].value());
}

TEST_F(ServeFixture, BatchGroupsMixedKsWithoutPerturbingResults) {
  // ks straddling per_query_candidates land in different fetch groups; each
  // request must still match its own sequential result exactly.
  const size_t big_k = search_->config().per_query_candidates + 50;
  std::vector<TupleSearch::TupleQuery> batch = {{&(*queries_)[0], 3},
                                                {&(*queries_)[1], big_k},
                                                {&(*queries_)[2], 3}};
  auto results = search_->SearchTuplesBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  ExpectSameHits(search_->SearchTuplesChecked((*queries_)[0], 3).ValueOrDie(),
                 results[0].value());
  ExpectSameHits(
      search_->SearchTuplesChecked((*queries_)[1], big_k).ValueOrDie(),
      results[1].value());
  ExpectSameHits(search_->SearchTuplesChecked((*queries_)[2], 3).ValueOrDie(),
                 results[2].value());
}

// --- QueryServer ------------------------------------------------------------

TEST_F(ServeFixture, ConcurrentClientsGetSequentialResults) {
  // Sequential oracle first, then N concurrent clients hammer the server
  // with the same queries; every response must be bit-identical.
  std::vector<std::vector<TupleHit>> expected;
  for (const Table& q : *queries_) {
    expected.push_back(search_->SearchTuplesChecked(q, 7).ValueOrDie());
  }
  QueryServerOptions options;
  options.threads = 4;
  options.max_batch = 8;
  options.batch_window_us = 200;
  QueryServer server(search_, options);
  const size_t kClients = 4;
  const size_t kRoundsPerClient = 20;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRoundsPerClient; ++round) {
        const size_t q = (c + round) % queries_->size();
        auto result = server.Submit((*queries_)[q], 7).get();
        if (!result.ok() || result.value().size() != expected[q].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < expected[q].size(); ++i) {
          if (!(result.value()[i].ref == expected[q][i].ref) ||
              result.value()[i].similarity != expected[q][i].similarity) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  server.Shutdown();
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.served, kClients * kRoundsPerClient);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.p99_ms, 0.0);
}

TEST_F(ServeFixture, RejectsZeroRowQueryWithInvalidArgument) {
  QueryServer server(search_, QueryServerOptions{});
  Table empty("empty");
  auto result = server.Submit(empty, 5).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(QueryServerTest, UnbuiltIndexRejectsInsteadOfAborting) {
  TupleSearch unbuilt(MakeTestEncoder());
  QueryServer server(&unbuilt, QueryServerOptions{});
  Table query = MakeWordTable("q", 2, 7);
  auto result = server.Submit(query, 5).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, ShutdownCompletesInFlightRequests) {
  QueryServerOptions options;
  options.threads = 2;
  options.max_batch = 4;
  options.batch_window_us = 50000;  // force requests to sit in the window
  QueryServer server(search_, options);
  std::vector<std::future<QueryServer::TupleResult>> futures;
  for (size_t i = 0; i < 10; ++i) {
    futures.push_back(server.Submit((*queries_)[i % queries_->size()], 5));
  }
  server.Shutdown();  // must drain, not drop
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result.value().empty());
  }
  EXPECT_EQ(server.stats().served, 10u);
  // Admission is refused after shutdown, with a status, not an abort.
  auto late = server.Submit((*queries_)[0], 5).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, TinyQueueServesEveryRequestExactlyOnce) {
  // Backpressure end to end: with a 1-deep queue and 1-request batches,
  // producers must block and retry-free serving still answers everything.
  QueryServerOptions options;
  options.threads = 2;
  options.queue_capacity = 1;
  options.max_batch = 1;
  options.batch_window_us = 0;
  QueryServer server(search_, options);
  const size_t kClients = 4;
  const size_t kPerClient = 25;
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        auto result =
            server.Submit((*queries_)[(c + i) % queries_->size()], 5).get();
        if (result.ok()) answered.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Shutdown();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.served, kClients * kPerClient);
  EXPECT_LE(stats.max_queue_depth, 1u);
}

// --- QueryServer result cache -----------------------------------------------

TEST_F(ServeFixture, CacheOffByDefaultRecordsNoCacheTraffic) {
  QueryServer server(search_, QueryServerOptions{});  // cache_entries = 0
  for (int round = 0; round < 2; ++round) {
    auto result = server.Submit((*queries_)[0], 5).get();
    ASSERT_TRUE(result.ok());
  }
  server.Shutdown();
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.served, 2u);  // both went through the batch path
}

TEST_F(ServeFixture, CacheHitBitIdenticalToUncachedServing) {
  QueryServerOptions options;
  options.threads = 2;
  options.cache_entries = 128;
  QueryServer server(search_, options);
  for (const Table& q : *queries_) {
    const std::vector<TupleHit> oracle =
        search_->SearchTuplesChecked(q, 7).ValueOrDie();
    auto cold = server.Submit(q, 7).get();
    ASSERT_TRUE(cold.ok());
    ExpectSameHits(oracle, cold.value());
    auto warm = server.Submit(q, 7).get();  // must be served from the cache
    ASSERT_TRUE(warm.ok());
    ExpectSameHits(oracle, warm.value());
  }
  server.Shutdown();
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, queries_->size());
  EXPECT_EQ(stats.cache_misses, queries_->size());
  // Hits bypassed the queue entirely: only the cold submits were batched.
  EXPECT_EQ(stats.served, queries_->size());
  EXPECT_EQ(stats.submitted, 2 * queries_->size());
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.5);
}

TEST_F(ServeFixture, DifferentKIsNotACacheHit) {
  QueryServerOptions options;
  options.cache_entries = 128;
  QueryServer server(search_, options);
  ASSERT_TRUE(server.Submit((*queries_)[0], 5).get().ok());
  auto other_k = server.Submit((*queries_)[0], 9).get();
  ASSERT_TRUE(other_k.ok());
  EXPECT_EQ(other_k.value().size(), 9u);  // not the cached 5-hit list
  server.Shutdown();
  EXPECT_EQ(server.stats().cache_hits, 0u);
  EXPECT_EQ(server.stats().cache_misses, 2u);
}

TEST(QueryServerCacheTest, ReindexedLakeServesZeroStaleHits) {
  // Own search engine: this test re-indexes the lake mid-flight, which the
  // shared fixture's engine must never experience.
  std::vector<Table> lake_storage;
  for (size_t t = 0; t < 6; ++t) {
    lake_storage.push_back(
        MakeWordTable("lake" + std::to_string(t), 15, 50 + t));
  }
  TupleSearch search(MakeTestEncoder());
  std::vector<const Table*> lake;
  for (const Table& t : lake_storage) lake.push_back(&t);
  search.IndexLake(lake);
  const Table query = MakeWordTable("q", 4, 9000);

  QueryServerOptions options;
  options.cache_entries = 128;
  QueryServer server(&search, options);
  ASSERT_TRUE(server.Submit(query, 6).get().ok());            // miss, inserted
  ASSERT_TRUE(server.Submit(query, 6).get().ok());            // hit
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // The lake gains a table and is re-indexed: LakeStateHash changes, so the
  // cached entry is stale. The next submit must be recomputed against the
  // new lake — bit-identical to the fresh sequential oracle — and counted
  // as an invalidation, never a hit.
  lake_storage.push_back(MakeWordTable("lake-new", 15, 77));
  lake.clear();
  for (const Table& t : lake_storage) lake.push_back(&t);
  search.IndexLake(lake);
  const std::vector<TupleHit> fresh_oracle =
      search.SearchTuplesChecked(query, 6).ValueOrDie();
  auto after = server.Submit(query, 6).get();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), fresh_oracle.size());
  for (size_t i = 0; i < fresh_oracle.size(); ++i) {
    EXPECT_EQ(after.value()[i].ref, fresh_oracle[i].ref);
    EXPECT_EQ(after.value()[i].similarity, fresh_oracle[i].similarity);
  }
  server.Shutdown();
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);  // unchanged: the stale entry never hit
  EXPECT_EQ(stats.cache_invalidations, 1u);
  // And the recomputed result is cached under the new snapshot hash.
  EXPECT_GE(stats.cache_entries, 1u);
}

TEST(QueryServerCacheTest, RemovedTableNeverServedFromCache) {
  // The mutable-lake regression: cache a query, tombstone a table the
  // cached result drew hits from, then re-issue the same query. The server
  // must miss (RemoveTable bumped LakeStateHash, invalidating the entry)
  // and the recomputed answer must contain zero hits from the deleted
  // table — a stale cached hit here would resurrect deleted rows.
  std::vector<Table> lake_storage;
  for (size_t t = 0; t < 6; ++t) {
    lake_storage.push_back(
        MakeWordTable("lake" + std::to_string(t), 15, 50 + t));
  }
  TupleSearch search(MakeTestEncoder());
  std::vector<const Table*> lake;
  for (const Table& t : lake_storage) lake.push_back(&t);
  search.IndexLake(lake);
  const Table query = MakeWordTable("q", 4, 9100);

  QueryServerOptions options;
  options.cache_entries = 128;
  QueryServer server(&search, options);
  auto first = server.Submit(query, 10).get();  // miss, inserted
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(server.Submit(query, 10).get().ok());  // hit
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // Delete the table the cached top hit came from. Mutations are not
  // synchronized against in-flight requests; none are in flight here.
  const size_t victim = first.value()[0].ref.table_index;
  ASSERT_TRUE(search.RemoveTable(search.catalog().slot(victim).name).ok());

  auto after = server.Submit(query, 10).get();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().empty());
  for (const TupleHit& h : after.value()) {
    EXPECT_NE(h.ref.table_index, victim)
        << "hit from the deleted table after RemoveTable";
  }
  server.Shutdown();
  const QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);  // the post-mutation submit never hit
  EXPECT_EQ(stats.cache_invalidations, 1u);

  // The mutable-lake gauges sample the mutated search object live.
  const std::string text = server.metrics().RenderText();
  EXPECT_NE(text.find("dust_lake_mutations_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dust_mutable_tombstoned_vectors 15\n"),
            std::string::npos);
  EXPECT_NE(text.find("dust_mutable_live_vectors 75\n"), std::string::npos);
}

TEST_F(ServeFixture, ConcurrentHitMissStormStaysConsistent) {
  // Clients hammer a mix of repeated (cache-hot) and rotating queries;
  // every response must match the sequential oracle whether it came from
  // the cache or the batch path, and the counters must reconcile exactly.
  std::vector<std::vector<TupleHit>> expected;
  for (const Table& q : *queries_) {
    expected.push_back(search_->SearchTuplesChecked(q, 6).ValueOrDie());
  }
  QueryServerOptions options;
  options.threads = 4;
  options.max_batch = 8;
  options.batch_window_us = 100;
  options.cache_entries = 64;  // over the cache's 16 stripes
  QueryServer server(search_, options);
  const size_t kClients = 6;
  const size_t kRoundsPerClient = 40;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRoundsPerClient; ++round) {
        // Zipf-ish skew: half the traffic goes to query 0.
        const size_t q = round % 2 == 0 ? 0 : (c + round) % queries_->size();
        auto result = server.Submit((*queries_)[q], 6).get();
        if (!result.ok() || result.value().size() != expected[q].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < expected[q].size(); ++i) {
          if (!(result.value()[i].ref == expected[q][i].ref) ||
              result.value()[i].similarity != expected[q][i].similarity) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Shutdown();
  EXPECT_EQ(mismatches.load(), 0u);
  const QueryServerStats stats = server.stats();
  const uint64_t total = kClients * kRoundsPerClient;
  // Every accepted request probed the cache exactly once.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
  EXPECT_EQ(stats.submitted, total);
  // Only misses reached the batch path; hits resolved at admission.
  EXPECT_EQ(stats.served + stats.cache_hits, total);
  EXPECT_GT(stats.cache_hits, 0u);  // the hot query must actually hit
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeFixture, ReadinessAndMetricsSurfaceLifecycle) {
  QueryServerOptions options;
  options.cache_entries = 16;
  QueryServer server(search_, options);
  EXPECT_EQ(server.readiness(), Readiness::kReady);
  ASSERT_TRUE(server.Submit((*queries_)[0], 5).get().ok());
  ASSERT_TRUE(server.Submit((*queries_)[0], 5).get().ok());
  const std::string text = server.metrics().RenderText();
  EXPECT_NE(text.find("dust_serve_ready 1\n"), std::string::npos);
  EXPECT_NE(text.find("dust_serve_submitted_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("dust_cache_hits_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("dust_serve_latency_ms_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("dust_executor_threads"), std::string::npos);
  server.Shutdown();
  EXPECT_EQ(server.readiness(), Readiness::kDraining);
  EXPECT_NE(server.metrics().RenderText().find("dust_serve_ready 2\n"),
            std::string::npos);
}

// --- tracing + slow-query log -----------------------------------------------

TEST_F(ServeFixture, TracedRequestRecordsFullSpanTreeAndSlowLog) {
  obs::SpanCollector::Global().Clear();
  QueryServerOptions options;
  options.threads = 2;
  options.cache_entries = 16;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;  // every request is "slow": forces the log
  QueryServer server(search_, options);
  ASSERT_TRUE(server.Submit((*queries_)[0], 5).get().ok());
  // Same query again: resolves on the cache path, also traced + logged.
  ASSERT_TRUE(server.Submit((*queries_)[0], 5).get().ok());
  server.Shutdown();

  const std::vector<obs::SpanRecord> spans =
      obs::SpanCollector::Global().Snapshot();
  auto count = [&](const char* name) {
    size_t n = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.name == name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count("serve"), 2u);  // one root per request
  EXPECT_EQ(count("cache_probe"), 2u);
  EXPECT_EQ(count("queue_wait"), 1u);  // only the miss sat on the queue
  EXPECT_EQ(count("search"), 1u);
  EXPECT_GE(count("encode"), 1u);
  EXPECT_GE(count("index_search"), 1u);
  EXPECT_GE(count("fuse"), 1u);
  // The two requests are distinct traces, and every span belongs to one of
  // them with an intact parent chain up to the request's root span.
  uint64_t roots[2] = {0, 0};
  size_t root_count = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "serve") {
      ASSERT_LT(root_count, 2u);
      roots[root_count++] = span.trace_id;
    }
  }
  EXPECT_NE(roots[0], roots[1]);
  for (const obs::SpanRecord& span : spans) {
    EXPECT_TRUE(span.trace_id == roots[0] || span.trace_id == roots[1])
        << span.name << " carries a foreign trace id";
  }

  const std::string text = server.metrics().RenderText();
  EXPECT_NE(text.find("dust_slow_queries_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dust_trace_spans_recorded_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dust_trace_spans_dropped_total 0\n"),
            std::string::npos);
}

TEST_F(ServeFixture, UnsampledServingRecordsNoSpans) {
  obs::SpanCollector::Global().Clear();
  QueryServerOptions options;
  options.cache_entries = 16;  // default trace_sample_rate = 0.0
  QueryServer server(search_, options);
  ASSERT_TRUE(server.Submit((*queries_)[1], 5).get().ok());
  ASSERT_TRUE(server.Submit((*queries_)[1], 5).get().ok());
  server.Shutdown();
  EXPECT_TRUE(obs::SpanCollector::Global().Snapshot().empty());
  // slow_query_ms defaults to disabled: nothing counted either.
  EXPECT_NE(server.metrics().RenderText().find("dust_slow_queries_total 0\n"),
            std::string::npos);
}

// --- executor-routed index fan-out parity -----------------------------------

std::vector<la::Vec> RandomUnitVectors(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Vec> out;
  for (size_t i = 0; i < n; ++i) {
    la::Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(v);
  }
  return out;
}

using HitLists = std::vector<std::vector<index::SearchHit>>;

void ExpectSameHitLists(const HitLists& expected, const HitLists& actual,
                        const char* mode) {
  ASSERT_EQ(expected.size(), actual.size()) << mode;
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size()) << mode << " query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, actual[q][i].id) << mode << " query " << q;
      // Exact float equality: scheduling must never perturb scoring.
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance)
          << mode << " query " << q;
    }
  }
}

TEST(ExecutorRoutingTest, FlatSearchBatchParityAcrossSchedulingModes) {
  const size_t kDim = 12;
  auto vectors = RandomUnitVectors(300, kDim, 41);
  auto queries = RandomUnitVectors(16, kDim, 42);
  auto index = index::MakeVectorIndex("flat", kDim, la::Metric::kEuclidean);
  index->AddAll(vectors);
  const HitLists on_default = index->SearchBatch(queries, 5);
  Executor pooled(4);
  Executor inline_executor(0);
  for (Executor* executor : {&pooled, &inline_executor}) {
    const ScopedExecutor scope(*executor);
    ExpectSameHitLists(on_default, index->SearchBatch(queries, 5),
                       executor == &pooled ? "Executor(4)" : "Executor(0)");
  }
}

TEST_F(ServeFixture, EmbeddingSearchExecutorParity) {
  // The pipeline-side wiring: the lake encode and the rerank's bound pass
  // on any executor must not change table retrieval.
  search::EmbeddingSearchConfig config;
  config.encoder.dim = 24;
  config.shortlist = 6;
  config.index_type = "flat";
  std::vector<const Table*> lake;
  for (const Table& t : *lake_storage_) lake.push_back(&t);
  const auto search_on = [&](Executor& executor) {
    const ScopedExecutor scope(executor);
    search::EmbeddingUnionSearch engine(config);
    engine.IndexLake(lake);
    return engine.SearchTables((*queries_)[0], 5);
  };
  const auto baseline = search_on(Executor::Default());
  Executor four(4);
  Executor inline_executor(0);
  for (Executor* executor : {&four, &inline_executor}) {
    const auto routed = search_on(*executor);
    ASSERT_EQ(baseline.size(), routed.size()) << executor->num_threads();
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].table_index, routed[i].table_index);
      EXPECT_EQ(baseline[i].score, routed[i].score);
    }
  }
}

/// A tuple encoder that counts the encodes it runs while the default pool
/// is Executor::Current().
class DefaultPoolCountingEncoder : public embed::TupleEncoder {
 public:
  explicit DefaultPoolCountingEncoder(
      std::shared_ptr<embed::TupleEncoder> inner)
      : inner_(std::move(inner)) {}

  la::Vec EncodeSerialized(const std::string& serialized) const override {
    encodes.fetch_add(1);
    if (&Executor::Current() == &Executor::Default()) on_default.fetch_add(1);
    return inner_->EncodeSerialized(serialized);
  }
  size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }

  mutable std::atomic<size_t> encodes{0};
  mutable std::atomic<size_t> on_default{0};

 private:
  std::shared_ptr<embed::TupleEncoder> inner_;
};

TEST_F(ServeFixture, ServedBatchRunsOnTheServersPool) {
  auto encoder =
      std::make_shared<DefaultPoolCountingEncoder>(MakeTestEncoder());
  TupleSearch search(encoder);
  std::vector<const Table*> lake;
  for (const Table& t : *lake_storage_) lake.push_back(&t);
  search.IndexLake(lake);  // encodes on this thread, outside any scope
  encoder->encodes.store(0);
  encoder->on_default.store(0);
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(&search, options);
  const Table& query = (*queries_)[0];
  auto result = server.Submit(query, 5).get();
  ASSERT_TRUE(result.ok());
  // The dispatcher's scope puts the whole batch on the server's pool; a
  // one-member batch encodes every row on the dispatcher thread.
  EXPECT_EQ(encoder->encodes.load(), query.num_rows());
  EXPECT_EQ(encoder->on_default.load(), 0u);
}

}  // namespace
}  // namespace dust::serve

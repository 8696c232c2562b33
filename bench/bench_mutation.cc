// bench_mutation — tombstone-filtered search vs a rebuilt index
// (google-benchmark). The CI bench-smoke job runs BM_Mutation* with
// --benchmark_out=BENCH_mutation.json and gates on the mutation-quality
// counters (mutation-quality step): at 10% deleted, recall@10 of the
// tombstoned HNSW index must stay within 0.01 of an index rebuilt from
// scratch over the survivors, and tombstone-filtered search must keep
// >= 0.7x the clean index's QPS.
//
//   - BM_MutationSearch/<pct>: queries an HNSW index after tombstoning
//     <pct>% of its vectors via RemoveAll — the delete path mutable lakes
//     actually take (no rebuild);
//   - the rebuild oracle (an HNSW built over only the survivors) is scored
//     once per fraction and exported as the rebuild_recall_at_10 counter.
//
// Recall is measured against the exact top-10 over the survivors (a flat
// scan), so both the tombstoned and rebuilt index are graded by the same
// ground truth.
#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "index/flat_index.h"
#include "index/vector_index.h"
#include "util/rng.h"
#include "util/status.h"

using namespace dust;

namespace {

constexpr size_t kNumVectors = 5000;
constexpr size_t kDim = 32;
constexpr size_t kQueries = 50;
constexpr size_t kTopK = 10;

std::vector<la::Vec> RandomUnitVectors(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Vec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    la::Vec v(kDim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(std::move(v));
  }
  return out;
}

std::unique_ptr<index::VectorIndex> MakeHnsw() {
  return index::MakeVectorIndex("hnsw", kDim, la::Metric::kCosine,
                                index::IndexOptions{});
}

/// Fraction of `truth`'s ids that `hits` recovered, averaged over queries.
double Recall(const std::vector<std::vector<index::SearchHit>>& truth,
              const std::vector<std::vector<index::SearchHit>>& hits) {
  double found = 0.0, possible = 0.0;
  for (size_t q = 0; q < truth.size(); ++q) {
    std::set<size_t> expected;
    for (const index::SearchHit& h : truth[q]) expected.insert(h.id);
    possible += static_cast<double>(expected.size());
    for (const index::SearchHit& h : hits[q]) {
      if (expected.count(h.id) > 0) found += 1.0;
    }
  }
  return possible == 0.0 ? 0.0 : found / possible;
}

struct MutationWorkload {
  std::unique_ptr<index::VectorIndex> tombstoned;  // deletes via RemoveAll
  std::vector<la::Vec> queries;
  double recall_at_10 = 0.0;          // tombstoned index vs exact survivors
  double rebuild_recall_at_10 = 0.0;  // rebuilt-over-survivors oracle
  size_t live = 0;
};

/// Workloads keyed by delete percentage; built once, shared across
/// iterations. All fractions share one vector set and query pool so the
/// only variable is how many tombstones the search has to skip.
const MutationWorkload& Workload(size_t delete_pct) {
  static auto* cache = new std::vector<std::pair<size_t, MutationWorkload*>>();
  for (const auto& entry : *cache) {
    if (entry.first == delete_pct) return *entry.second;
  }
  auto* w = new MutationWorkload();
  const auto vectors = RandomUnitVectors(kNumVectors, 42);
  w->queries = RandomUnitVectors(kQueries, 4242);

  Rng rng(1000 + delete_pct);
  const std::vector<size_t> removed = rng.SampleWithoutReplacement(
      kNumVectors, kNumVectors * delete_pct / 100);
  std::vector<uint8_t> dead(kNumVectors, 0);
  for (size_t id : removed) dead[id] = 1;

  w->tombstoned = MakeHnsw();
  w->tombstoned->AddAll(vectors);
  DUST_CHECK(w->tombstoned->RemoveAll(removed) == removed.size());
  w->live = w->tombstoned->live_size();

  // Ground truth and the rebuild oracle live on survivor-local ids; map
  // the tombstoned index's global ids down before grading.
  index::FlatIndex exact(kDim, la::Metric::kCosine);
  auto rebuilt = MakeHnsw();
  std::vector<size_t> survivor_of(kNumVectors, 0);
  for (size_t id = 0, next = 0; id < kNumVectors; ++id) {
    if (dead[id]) continue;
    survivor_of[id] = next++;
    exact.Add(vectors[id]);
    rebuilt->Add(vectors[id]);
  }
  const auto truth = exact.SearchBatch(w->queries, kTopK);
  auto filtered = w->tombstoned->SearchBatch(w->queries, kTopK);
  for (auto& hits : filtered) {
    for (index::SearchHit& h : hits) h.id = survivor_of[h.id];
  }
  w->recall_at_10 = Recall(truth, filtered);
  w->rebuild_recall_at_10 =
      Recall(truth, rebuilt->SearchBatch(w->queries, kTopK));

  cache->emplace_back(delete_pct, w);
  return *w;
}

void BM_MutationSearch(benchmark::State& state) {
  const size_t delete_pct = static_cast<size_t>(state.range(0));
  const MutationWorkload& w = Workload(delete_pct);
  size_t q = 0;
  for (auto _ : state) {
    const auto hits =
        w.tombstoned->Search(w.queries[q++ % w.queries.size()], kTopK);
    benchmark::DoNotOptimize(hits.data());
  }
  state.counters["deleted_pct"] = static_cast<double>(delete_pct);
  state.counters["live_vectors"] = static_cast<double>(w.live);
  state.counters["recall_at_10"] = w.recall_at_10;
  state.counters["rebuild_recall_at_10"] = w.rebuild_recall_at_10;
  state.SetLabel("hnsw search skipping " + std::to_string(delete_pct) +
                 "% tombstones");
}
BENCHMARK(BM_MutationSearch)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

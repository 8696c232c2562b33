// Micro-benchmarks (google-benchmark) for the hot kernels: distance
// computations, NN-chain clustering, the vector indexes (build, save, load,
// query), and tuple encoding. The CI bench-smoke job runs the BM_Index*
// benchmarks with --benchmark_out=BENCH_index.json (likewise BM_Kernel* to
// BENCH_kernels.json, BM_DistanceMatrix|BM_NnChainClustering to
// BENCH_diversify.json, BM_TupleEncoding|BM_DustModelEncode to
// BENCH_encode.json, and BM_SearchTables to BENCH_search.json) and uploads
// the JSON as a per-PR artifact, so the
// offline-build and online-serve timings are tracked across revisions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "bench/bench_util.h"
#include "cluster/agglomerative.h"
#include "datagen/tus_generator.h"
#include "index/flat_index.h"
#include "io/index_io.h"
#include "la/distance.h"
#include "la/simd/kernels.h"
#include "nn/dust_model.h"
#include "search/embedding_search.h"
#include "serve/executor.h"
#include "table/serialize.h"

using namespace dust;

namespace {

// --- SIMD kernel benchmarks (BM_Kernel*, exported as BENCH_kernels.json) ---
//
// Each benchmark runs once on the scalar backend (arg 1 == 0) and once on
// the dispatched backend (arg 1 == 1; "avx2" on AVX2 hardware, scalar
// otherwise — the label records which). The acceptance gate for this layer
// is >= 2x for AVX2 Dot / DistanceToMany over scalar at dim >= 128.

const la::simd::Kernels& BenchKernels(bool dispatched) {
  return dispatched ? la::simd::Active() : la::simd::ScalarKernels();
}

void BM_KernelDot(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.dot(points[0].data(), points[1].data(), dim));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dim));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelDot)->ArgsProduct({{64, 128, 256, 768, 1024}, {0, 1}});

void BM_KernelCosineTerms(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
  for (auto _ : state) {
    ops.cosine_terms(points[0].data(), points[1].data(), dim, &dot, &a2, &b2);
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dim));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelCosineTerms)->ArgsProduct({{128, 768}, {0, 1}});

/// The table-search bound pass's kernel: 5 query columns against a
/// 256-column block of lake columns, every pair's dot in cosine_terms'
/// order (items = pairs).
void BM_KernelCosineDotBlock(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  constexpr size_t kQueries = 5;
  constexpr size_t kRows = 256;
  std::vector<float> q, rows;
  for (const la::Vec& v : bench::SyntheticTupleCloud(kQueries, dim, 2, 1)) {
    q.insert(q.end(), v.begin(), v.end());
  }
  for (const la::Vec& v : bench::SyntheticTupleCloud(kRows, dim, 16, 2)) {
    rows.insert(rows.end(), v.begin(), v.end());
  }
  std::vector<float> out(kQueries * kRows);
  for (auto _ : state) {
    ops.cosine_dot_block(q.data(), kQueries, rows.data(), kRows, dim,
                         out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kQueries * kRows));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelCosineDotBlock)->ArgsProduct({{64, 128}, {0, 1}});

/// One-to-many batch kernel over an 8k-vector base with cached norms — the
/// shape of a linear index scan.
void BM_KernelDistanceToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 8192;
  la::simd::ForceScalar(state.range(1) == 0);
  auto base = bench::SyntheticTupleCloud(n, dim, 16, 2);
  la::Vec query = bench::SyntheticTupleCloud(1, dim, 1, 3)[0];
  const std::vector<float> norms = la::NormsOf(base);
  std::vector<float> out;
  for (auto _ : state) {
    la::DistanceToMany(la::Metric::kCosine, query, base, norms, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(la::simd::ActiveName());
  la::simd::ForceScalar(false);
}
BENCHMARK(BM_KernelDistanceToMany)->ArgsProduct({{128, 256}, {0, 1}});

/// Per-candidate baseline for the same scan: one la::Distance call per
/// vector (three passes per cosine pair, no norm cache, no hoisted query
/// norm). The gap to BM_KernelDistanceToMany is the one-vs-many win.
void BM_KernelDistancePairLoop(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 8192;
  la::simd::ForceScalar(state.range(1) == 0);
  auto base = bench::SyntheticTupleCloud(n, dim, 16, 2);
  la::Vec query = bench::SyntheticTupleCloud(1, dim, 1, 3)[0];
  std::vector<float> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = la::Distance(la::Metric::kCosine, query, base[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(la::simd::ActiveName());
  la::simd::ForceScalar(false);
}
BENCHMARK(BM_KernelDistancePairLoop)->ArgsProduct({{128, 256}, {0, 1}});

void BM_CosineDistance(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::CosineDistance(points[0], points[1]));
  }
}
BENCHMARK(BM_CosineDistance)->Arg(64)->Arg(256)->Arg(768);

// --- Diversification benchmarks (exported as BENCH_diversify.json) --------
//
// The two O(s^2) phases of DUST's clustering step at dim 64, cosine; 2500
// is the paper's pruning cap s.

/// Arg 1 == 0 builds the matrix on Executor(0), the calling thread; arg 1
/// == 1 on the default pool.
void BM_DistanceMatrix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(n, 64, 8, 2);
  serve::Executor inline_executor(0);
  const serve::ScopedExecutor scope(
      state.range(1) == 0 ? inline_executor : serve::Executor::Default());
  for (auto _ : state) {
    la::DistanceMatrix m(points, la::Metric::kCosine);
    benchmark::DoNotOptimize(m.at(0, n - 1));
  }
  state.SetLabel(state.range(1) == 0 ? "serial" : "pooled");
}
BENCHMARK(BM_DistanceMatrix)->ArgsProduct({{200, 500, 1000, 2500}, {0, 1}});

void BM_NnChainClustering(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(n, 64, 10, 3);
  la::DistanceMatrix matrix(points, la::Metric::kCosine);
  for (auto _ : state) {
    // Clustering consumes its matrix; the fresh copy is setup, not timed.
    state.PauseTiming();
    la::DistanceMatrix copy = matrix;
    state.ResumeTiming();
    cluster::Dendrogram d = cluster::AgglomerativeCluster(
        std::move(copy), cluster::Linkage::kAverage);
    benchmark::DoNotOptimize(d.merges.size());
  }
}
BENCHMARK(BM_NnChainClustering)->Arg(200)->Arg(500)->Arg(1000)->Arg(2500);

constexpr const char* kIndexTypes[] = {"flat", "hnsw"};

/// Fraction of the exact top-10 the index reproduces, over 20 held-out
/// queries (the acceptance gate for approximate shortlists is >= 0.95).
double RecallAt10(const index::VectorIndex& idx,
                  const std::vector<la::Vec>& points) {
  index::FlatIndex exact(idx.dim(), la::Metric::kCosine);
  exact.AddAll(points);
  size_t found = 0, total = 0;
  for (uint64_t q = 0; q < 20; ++q) {
    la::Vec query = bench::SyntheticTupleCloud(1, idx.dim(), 1, 900 + q)[0];
    std::set<size_t> approx_ids;
    for (const auto& h : idx.Search(query, 10)) approx_ids.insert(h.id);
    for (const auto& h : exact.Search(query, 10)) {
      ++total;
      found += approx_ids.count(h.id);
    }
  }
  return static_cast<double>(found) / static_cast<double>(total);
}

/// Scratch file shared by the save/load benchmarks.
std::string BenchIndexPath() {
  return (std::filesystem::temp_directory_path() / "dust_bench_index.bin")
      .string();
}

void BM_IndexBuild(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  size_t n = static_cast<size_t>(state.range(1));
  auto points = bench::SyntheticTupleCloud(n, 64, 16, 4);
  for (auto _ : state) {
    auto idx = index::MakeVectorIndex(type, 64, la::Metric::kCosine);
    idx->AddAll(points);
    benchmark::DoNotOptimize(idx->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(type);
}
BENCHMARK(BM_IndexBuild)->ArgsProduct({{0, 1}, {2000, 10000}});

void BM_IndexSave(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  auto points = bench::SyntheticTupleCloud(10000, 64, 16, 4);
  auto idx = index::MakeVectorIndex(type, 64, la::Metric::kCosine);
  idx->AddAll(points);
  const std::string path = BenchIndexPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::SaveIndex(*idx, path).ok());
  }
  std::error_code ec;
  state.counters["file_bytes"] = static_cast<double>(
      std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexSave)->Arg(0)->Arg(1);

void BM_IndexLoad(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  auto points = bench::SyntheticTupleCloud(10000, 64, 16, 4);
  auto idx = index::MakeVectorIndex(type, 64, la::Metric::kCosine);
  idx->AddAll(points);
  const std::string path = BenchIndexPath();
  if (!io::SaveIndex(*idx, path).ok()) {
    state.SkipWithError("cannot write bench index file");
    return;
  }
  for (auto _ : state) {
    auto loaded = io::LoadIndex(path);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexLoad)->Arg(0)->Arg(1);

void BM_IndexSearch(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  size_t n = static_cast<size_t>(state.range(1));
  auto points = bench::SyntheticTupleCloud(n, 64, 16, 4);
  auto idx = index::MakeVectorIndex(type, 64, la::Metric::kCosine);
  idx->AddAll(points);
  la::Vec query = bench::SyntheticTupleCloud(1, 64, 1, 5)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Search(query, 10).size());
  }
  state.counters["recall@10"] = RecallAt10(*idx, points);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexSearch)
    ->ArgsProduct({{0, 1}, {2000, 10000}});  // flat, hnsw

/// One SearchBatch of `rows` queries for the top `k` each over `n` stored
/// vectors of 64 dims, on the default executor.
void BM_IndexSearchBatch(benchmark::State& state, const char* type, size_t n,
                         size_t rows, size_t k) {
  auto points = bench::SyntheticTupleCloud(n, 64, 16, 4);
  auto idx = index::MakeVectorIndex(type, 64, la::Metric::kCosine);
  idx->AddAll(points);
  std::vector<la::Vec> queries = bench::SyntheticTupleCloud(rows, 64, 8, 5);
  benchmark::DoNotOptimize(idx->SearchBatch(queries, k).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->SearchBatch(queries, k).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel(type);
}

void BM_IndexSearchBatch(benchmark::State& state) {
  BM_IndexSearchBatch(state, kIndexTypes[state.range(0)], 10000, 64, 10);
}
BENCHMARK(BM_IndexSearchBatch)->Arg(0)->Arg(1);

// A served tuple-query miss: the flat index over the alg1_tus lake's
// 37,439 tuples, about two requests' 25 query rows, and
// per_query_candidates = 200 hits per row.
BENCHMARK_CAPTURE(BM_IndexSearchBatch, serve_miss, "flat", 37439, 25, 200)
    ->Unit(benchmark::kMillisecond);

void BM_TupleEncoding(benchmark::State& state) {
  auto encoder = bench::MakeBenchEncoder(64);
  std::string serialized =
      "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP] Country "
      "USA [SEP] Supervisor Tim Erickson [SEP]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->EncodeSerialized(serialized).size());
  }
}
BENCHMARK(BM_TupleEncoding);

/// 1,024 tuples of perfbench's alg1_tus lake (GenerateTus with 10 queries,
/// 8 unionable tables each, 1,000 base rows, 2 distractors, seed 1), taken
/// round-robin across its tables so every base schema is represented.
const std::vector<std::string>& Alg1TusTuples() {
  static const std::vector<std::string> tuples = [] {
    datagen::TusConfig config;
    config.num_queries = 10;
    config.unionable_per_query = 8;
    config.base_rows = 1000;
    config.distractors_per_base = 2;
    config.seed = 1;
    const datagen::Benchmark lake = datagen::GenerateTus(config);
    std::vector<std::string> out;
    for (size_t row = 0; out.size() < 1024; ++row) {
      for (const datagen::GeneratedTable& t : lake.lake) {
        if (row < t.data.num_rows() && out.size() < 1024) {
          out.push_back(table::SerializeTableRow(t.data, row));
        }
      }
    }
    return out;
  }();
  return tuples;
}

/// Algorithm 1's encoder: perfbench's DustModel (default config, seed 7,
/// dim 64) over alg1_tus-shaped tuples, one at a time on one thread.
void BM_DustModelEncode(benchmark::State& state) {
  nn::DustModelConfig config;
  config.embedding_dim = 64;
  const nn::DustModel model(config);
  const std::vector<std::string>& tuples = Alg1TusTuples();
  for (auto _ : state) {
    for (const std::string& tuple : tuples) {
      benchmark::DoNotOptimize(model.EncodeSerialized(tuple).data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_DustModelEncode)->Unit(benchmark::kMillisecond);

// --- Table search (BM_SearchTables, exported as BENCH_search.json) ---

/// Algorithm 1's search step on search_test's 1,010-table lake (GenerateTus
/// with 10 queries, 100 unionable tables each, 20 base rows, 5 distractors):
/// the top 10 tables for each query in turn, every table bounded. Arg 0
/// runs the bound pass on Executor(0), the calling thread; arg 1 on the
/// default pool.
void BM_SearchTables(benchmark::State& state) {
  datagen::TusConfig config;
  config.num_queries = 10;
  config.unionable_per_query = 100;
  config.base_rows = 20;
  config.distractors_per_base = 5;
  static const datagen::Benchmark lake = datagen::GenerateTus(config);
  std::vector<const table::Table*> tables;
  for (const datagen::GeneratedTable& t : lake.lake) tables.push_back(&t.data);
  serve::Executor inline_executor(0);
  const serve::ScopedExecutor scope(
      state.range(0) == 0 ? inline_executor : serve::Executor::Default());
  search::EmbeddingUnionSearch search;
  search.IndexLake(tables);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search.SearchTables(lake.queries[q].data, 10).data());
    q = (q + 1) % lake.queries.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 0 ? "serial" : "pooled");
}
BENCHMARK(BM_SearchTables)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

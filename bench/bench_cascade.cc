// bench_cascade — staged retrieval cascade vs the flat path
// (google-benchmark). The CI bench-smoke job runs BM_Cascade* with
// --benchmark_out=BENCH_cascade.json and gates on the cascade-quality
// counters (cascade-quality step): the layer-1 prefilter must shed >= 90%
// of a heterogeneous lake, cascade recall@10 must stay within 0.01 of the
// flat path, and the staged search must be >= 1.5x faster.
//
//   - BM_CascadeFlatSearch: the cascade-free baseline (shortlist = 0).
//     It prunes too: the bound-and-verify rerank bounds every lake table
//     and runs the exact bipartite matching only for tables whose bound
//     can still reach the top 10;
//   - BM_CascadeStagedSearch: defaults-on cascade — type prefilter,
//     MinHash prescreen, then the same rerank over the survivors.
//
// The lake models the heterogeneity the prefilter exists for: a small
// unionable family sharing the query's schema and vocabulary, a band of
// text distractors with disjoint vocabulary (prefilter-compatible, caught
// by the prescreen), and a long tail of numeric junk tables the type
// signatures reject outright.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "search/embedding_search.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/status.h"

using namespace dust;

namespace {

constexpr size_t kFamilyTables = 30;
constexpr size_t kTextDistractors = 20;
constexpr size_t kNumericDistractors = 480;
constexpr size_t kQueries = 8;
constexpr size_t kTopK = 10;
constexpr size_t kPrescreenKeep = 40;

/// A 4-text-column table drawing values from a vocabulary namespace; tables
/// sharing `vocab` overlap heavily in values, different vocabs are
/// disjoint.
table::Table MakeTextTable(const std::string& name, const std::string& vocab,
                           size_t rows, uint64_t seed) {
  Rng rng(seed);
  table::Table t(name);
  std::vector<table::Value> park, city, country, agency;
  for (size_t r = 0; r < rows; ++r) {
    park.emplace_back(vocab + "_park" + std::to_string(rng.NextBelow(120)));
    city.emplace_back(vocab + "_city" + std::to_string(rng.NextBelow(60)));
    country.emplace_back(vocab + "_cty" + std::to_string(rng.NextBelow(20)));
    agency.emplace_back(vocab + "_org" + std::to_string(rng.NextBelow(40)));
  }
  DUST_CHECK(t.AddColumn("park", std::move(park)).ok());
  DUST_CHECK(t.AddColumn("city", std::move(city)).ok());
  DUST_CHECK(t.AddColumn("country", std::move(country)).ok());
  DUST_CHECK(t.AddColumn("agency", std::move(agency)).ok());
  return t;
}

/// A 2-numeric-column junk table — the type prefilter's bread and butter.
table::Table MakeNumericTable(const std::string& name, size_t rows,
                              uint64_t seed) {
  Rng rng(seed);
  table::Table t(name);
  std::vector<table::Value> xs, ys;
  for (size_t r = 0; r < rows; ++r) {
    xs.emplace_back(std::to_string(rng.NextBelow(100000)));
    ys.emplace_back(std::to_string(rng.NextBelow(100000)) + ".5");
  }
  DUST_CHECK(t.AddColumn("x", std::move(xs)).ok());
  DUST_CHECK(t.AddColumn("y", std::move(ys)).ok());
  return t;
}

struct CascadeWorkload {
  std::vector<table::Table> lake_storage;
  std::vector<const table::Table*> lake;
  std::vector<table::Table> queries;
  std::unique_ptr<search::EmbeddingUnionSearch> flat;
  std::unique_ptr<search::EmbeddingUnionSearch> staged;
  double recall_at_10 = 0.0;
  double layer1_reduction = 0.0;
  double prescreen_reduction = 0.0;
};

search::EmbeddingSearchConfig StagedConfig() {
  search::EmbeddingSearchConfig config;
  config.cascade.enabled = true;
  config.cascade.prescreen_keep = kPrescreenKeep;
  return config;
}

const CascadeWorkload& Workload() {
  static const CascadeWorkload* workload = [] {
    auto* w = new CascadeWorkload();
    for (size_t t = 0; t < kFamilyTables; ++t) {
      w->lake_storage.push_back(
          MakeTextTable("family" + std::to_string(t), "parks", 24, 100 + t));
    }
    for (size_t t = 0; t < kTextDistractors; ++t) {
      w->lake_storage.push_back(MakeTextTable(
          "textjunk" + std::to_string(t), "vocab" + std::to_string(t), 24,
          900 + t));
    }
    for (size_t t = 0; t < kNumericDistractors; ++t) {
      w->lake_storage.push_back(
          MakeNumericTable("numjunk" + std::to_string(t), 24, 5000 + t));
    }
    for (const table::Table& t : w->lake_storage) w->lake.push_back(&t);
    for (size_t q = 0; q < kQueries; ++q) {
      w->queries.push_back(
          MakeTextTable("q" + std::to_string(q), "parks", 10, 7000 + q));
    }

    w->flat = std::make_unique<search::EmbeddingUnionSearch>(
        search::EmbeddingSearchConfig{});
    w->flat->IndexLake(w->lake);
    w->staged =
        std::make_unique<search::EmbeddingUnionSearch>(StagedConfig());
    w->staged->IndexLake(w->lake);

    // Quality counters, computed once over the query pool: recall@10 of
    // the staged cascade against the flat (exact) top-10, and the
    // reduction each prefilter layer achieved on the last query.
    double hit = 0.0, possible = 0.0;
    for (const table::Table& query : w->queries) {
      const auto expected = w->flat->SearchTables(query, kTopK);
      const auto actual = w->staged->SearchTables(query, kTopK);
      for (const search::TableHit& e : expected) {
        possible += 1.0;
        for (const search::TableHit& a : actual) {
          if (a.table_index == e.table_index) {
            hit += 1.0;
            break;
          }
        }
      }
    }
    w->recall_at_10 = possible == 0.0 ? 0.0 : hit / possible;
    for (const auto& stage : w->staged->last_stage_stats()) {
      const double reduction =
          stage.in == 0 ? 0.0
                        : 1.0 - static_cast<double>(stage.out) /
                                    static_cast<double>(stage.in);
      if (stage.stage == "prefilter") w->layer1_reduction = reduction;
      if (stage.stage == "prescreen") w->prescreen_reduction = reduction;
    }
    return w;
  }();
  return *workload;
}

void BM_CascadeFlatSearch(benchmark::State& state) {
  const CascadeWorkload& w = Workload();
  size_t q = 0;
  for (auto _ : state) {
    const auto hits =
        w.flat->SearchTables(w.queries[q++ % w.queries.size()], kTopK);
    benchmark::DoNotOptimize(hits.data());
  }
  state.counters["lake_tables"] = static_cast<double>(w.lake.size());
  state.SetLabel("bound-and-verify rerank over every table");
}
BENCHMARK(BM_CascadeFlatSearch)->Unit(benchmark::kMicrosecond);

void BM_CascadeStagedSearch(benchmark::State& state) {
  const CascadeWorkload& w = Workload();
  size_t q = 0;
  for (auto _ : state) {
    const auto hits =
        w.staged->SearchTables(w.queries[q++ % w.queries.size()], kTopK);
    benchmark::DoNotOptimize(hits.data());
  }
  state.counters["lake_tables"] = static_cast<double>(w.lake.size());
  state.counters["layer1_reduction"] = w.layer1_reduction;
  state.counters["prescreen_reduction"] = w.prescreen_reduction;
  state.counters["recall_at_10"] = w.recall_at_10;
  state.SetLabel("prefilter + prescreen(keep=" +
                 std::to_string(kPrescreenKeep) + ") + exact rerank");
}
BENCHMARK(BM_CascadeStagedSearch)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

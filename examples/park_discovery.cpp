// Park discovery: "most unionable" vs "most diverse" (Fig. 1 e vs f).
//
// Generates a TUS-style parks data lake with heavy redundancy, then shows
// side by side what a similarity-based tuple search returns (near-copies of
// the query) versus what DUST returns (novel parks).
//
//   ./examples/park_discovery
#include <cstdio>
#include <unordered_set>

#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "embed/tuple_encoder.h"
#include "search/tuple_search.h"
#include "table/union.h"

using namespace dust;

namespace {

std::shared_ptr<embed::TupleEncoder> MakeEncoder() {
  embed::EmbedderConfig config;
  config.dim = 48;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, config)));
}

// Fraction of result rows whose entity (first column) already appears in
// the query table.
double RedundantFraction(const table::Table& result,
                         const std::unordered_set<std::string>& query_entities) {
  if (result.num_rows() == 0) return 0.0;
  size_t redundant = 0;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    if (!result.at(r, 0).is_null() &&
        query_entities.count(result.at(r, 0).text())) {
      ++redundant;
    }
  }
  return static_cast<double>(redundant) / result.num_rows();
}

}  // namespace

int main() {
  datagen::TusConfig config;
  config.num_queries = 1;  // parks is the first built-in domain
  config.unionable_per_query = 8;
  config.near_copy_fraction = 0.6;  // a redundant lake
  config.base_rows = 120;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  const table::Table& query = benchmark.queries[0].data;

  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);

  std::unordered_set<std::string> query_entities;
  for (size_t r = 0; r < query.num_rows(); ++r) {
    query_entities.insert(query.at(r, 0).text());
  }
  std::printf("Query: %zu park tuples; lake: %zu tables (%.0f%% near-copies "
              "of the query among unionable ones)\n",
              query.num_rows(), lake.size(), 100 * config.near_copy_fraction);

  auto encoder = MakeEncoder();
  const size_t k = 15;

  // --- Existing work: the k most similar ("most unionable") tuples. ---
  search::TupleSearch similarity(encoder);
  similarity.IndexLake(lake);
  auto hits = similarity.SearchTuplesChecked(query, k);
  DUST_CHECK(hits.ok());
  table::Table most_similar("most_unionable");
  for (size_t j = 0; j < query.num_columns(); ++j) {
    most_similar.AddColumn(query.column(j).name);
  }
  // Assemble rows positionally (the generator keeps the schema order).
  for (const search::TupleHit& hit : hits.value()) {
    const table::Table& src = *lake[hit.ref.table_index];
    std::vector<table::Value> row;
    for (size_t j = 0; j < query.num_columns(); ++j) {
      row.push_back(j < src.num_columns() ? src.at(hit.ref.row_index, j)
                                          : table::Value::Null());
    }
    DUST_CHECK(most_similar.AddRow(row).ok());
  }

  // --- This work: k diverse unionable tuples. ---
  core::PipelineConfig pipeline_config;
  pipeline_config.num_tables = 8;
  core::DustPipeline pipeline(pipeline_config, encoder);
  pipeline.IndexLake(lake);
  auto dust_result = pipeline.Run(query, k);
  DUST_CHECK(dust_result.ok());

  double similar_redundancy = RedundantFraction(most_similar, query_entities);
  double dust_redundancy =
      RedundantFraction(dust_result.value().output, query_entities);

  std::printf("\n%-28s %-12s\n", "Method", "redundant rows");
  std::printf("%-28s %5.0f%%\n", "most unionable (similarity)",
              100 * similar_redundancy);
  std::printf("%-28s %5.0f%%\n", "most diverse (DUST)",
              100 * dust_redundancy);

  std::printf("\nDUST's picks (first 5):\n");
  const table::Table& out = dust_result.value().output;
  for (size_t r = 0; r < std::min<size_t>(5, out.num_rows()); ++r) {
    for (size_t j = 0; j < out.num_columns(); ++j) {
      std::printf("%-22s", out.at(r, j).ToDisplay().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

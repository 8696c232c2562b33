// Mythology case study — the Fig. 12 anecdote.
//
// A mythology query table (Myth / Definition / Synonyms / Origin) with a
// redundant lake: Starmie's top-5 returns creatures the analyst already
// has (Minotaur, Chimera, Basilisk...), while DUST surfaces new creatures
// with more varied origins.
//
//   ./examples/mythology_case_study
#include <cstdio>
#include <unordered_set>

#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "embed/tuple_encoder.h"
#include "search/tuple_search.h"

using namespace dust;

namespace {

void PrintTuples(const char* title, const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n%s\n", title);
  for (const auto& row : rows) {
    for (const auto& cell : row) std::printf("%-20s", cell.c_str());
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // The mythology domain is built-in (domain index 3); generate a lake
  // with heavy near-copy redundancy around one query.
  datagen::TusConfig config;
  config.num_queries = 4;  // queries 0..3; mythology is query 3
  config.unionable_per_query = 8;
  config.near_copy_fraction = 0.6;
  config.base_rows = 60;
  config.column_keep_min = 1.0;  // keep full schemas: clean alignment
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  const size_t kMythQuery = 3;
  const table::Table& query = benchmark.queries[kMythQuery].data;

  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);

  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 48;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));

  std::vector<std::vector<std::string>> query_rows;
  for (size_t r = 0; r < std::min<size_t>(5, query.num_rows()); ++r) {
    std::vector<std::string> row;
    for (size_t j = 0; j < query.num_columns(); ++j) {
      row.push_back(query.at(r, j).ToDisplay());
    }
    query_rows.push_back(row);
  }
  PrintTuples("Query table (first 5 tuples):", query_rows);

  std::unordered_set<std::string> known;
  for (size_t r = 0; r < query.num_rows(); ++r) {
    known.insert(query.at(r, 0).text());
  }

  const size_t k = 5;
  // Starmie: top-5 most similar lake tuples.
  search::TupleSearch similarity(encoder);
  similarity.IndexLake(lake);
  std::vector<std::vector<std::string>> starmie_rows;
  size_t starmie_known = 0;
  auto starmie_hits = similarity.SearchTuplesChecked(query, k);
  DUST_CHECK(starmie_hits.ok());
  for (const search::TupleHit& hit : starmie_hits.value()) {
    const table::Table& src = *lake[hit.ref.table_index];
    std::vector<std::string> row;
    for (size_t j = 0; j < src.num_columns(); ++j) {
      row.push_back(src.at(hit.ref.row_index, j).ToDisplay());
    }
    if (known.count(src.at(hit.ref.row_index, 0).text())) ++starmie_known;
    starmie_rows.push_back(row);
  }
  PrintTuples("Starmie top-5 (most similar):", starmie_rows);

  // DUST: top-5 diverse tuples.
  core::PipelineConfig pipeline_config;
  pipeline_config.num_tables = 8;
  core::DustPipeline pipeline(pipeline_config, encoder);
  pipeline.IndexLake(lake);
  auto result = pipeline.Run(query, k);
  DUST_CHECK(result.ok());
  std::vector<std::vector<std::string>> dust_rows;
  size_t dust_known = 0;
  const table::Table& out = result.value().output;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    std::vector<std::string> row;
    for (size_t j = 0; j < out.num_columns(); ++j) {
      row.push_back(out.at(r, j).ToDisplay());
    }
    if (!out.at(r, 0).is_null() && known.count(out.at(r, 0).text())) {
      ++dust_known;
    }
    dust_rows.push_back(row);
  }
  PrintTuples("DUST top-5 (most diverse):", dust_rows);

  std::printf(
      "\nAlready-known creatures returned: Starmie %zu/%zu, DUST %zu/%zu\n"
      "(the Fig. 12 anecdote: similarity search re-retrieves the query's\n"
      "own myths; DUST adds new ones).\n",
      starmie_known, k, dust_known, k);
  return 0;
}

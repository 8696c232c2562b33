// Table 3 — DUST against table-search techniques (and an LLM).
//
// SANTOS-style: Starmie tuple search vs DUST (LLM excluded — query tables
// exceed its input token budget, as in the paper). UGEN-style: Starmie vs
// LLM vs DUST. All methods' outputs are embedded with the same encoder and
// scored with Average / Min Diversity; per-query win counts are reported.
#include <map>

#include "bench/bench_util.h"
#include "datagen/santos_generator.h"
#include "datagen/ugen_generator.h"
#include "diversify/dust_diversifier.h"
#include "diversify/metrics.h"
#include "llm/simulated_llm.h"
#include "search/tuple_search.h"

using namespace dust;

namespace {

struct Wins {
  size_t avg = 0;
  size_t min = 0;
};

void RunBenchmark(const std::string& name, const datagen::Benchmark& benchmark,
                  size_t k, bool include_llm) {
  auto encoder = bench::MakeBenchEncoder(48);

  // Starmie baseline: every lake tuple indexed as its own table.
  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);
  search::TupleSearchConfig search_config;
  search_config.index_type = "flat";
  search_config.per_query_candidates = 4 * k;
  search::TupleSearch starmie(encoder, search_config);
  starmie.IndexLake(lake);

  llm::LlmConfig llm_config;
  llm_config.max_input_tokens = 1500;
  llm::SimulatedLlm llm(llm_config);

  std::map<std::string, Wins> wins;
  size_t queries_run = 0;
  size_t llm_refusals = 0;

  for (size_t q = 0; q < benchmark.queries.size(); ++q) {
    const table::Table& query = benchmark.queries[q].data;
    bench::EncodedQueryWorkload workload =
        bench::EncodeWorkload(benchmark, q, *encoder);
    if (workload.lake.size() < k) continue;
    ++queries_run;

    std::map<std::string, diversify::DiversityScores> scores;

    // --- Starmie: k most similar tuples. ---
    {
      std::vector<la::Vec> points;
      for (const search::TupleHit& hit :
           starmie.SearchTuplesChecked(query, k).ValueOrDie()) {
        const table::Table& src = *lake[hit.ref.table_index];
        points.push_back(encoder->EncodeSerialized(
            table::SerializeTableRow(src, hit.ref.row_index)));
      }
      scores["Starmie"] =
          diversify::ScoreDiversity(workload.query, points, la::Metric::kCosine);
    }

    // --- LLM: generated tuples (UGEN only / when under token budget). ---
    if (include_llm) {
      auto generated = llm.GenerateDiverseTuples(query, k);
      if (generated.ok()) {
        std::vector<la::Vec> points =
            encoder->EncodeTableRows(generated.value());
        scores["LLM"] = diversify::ScoreDiversity(workload.query, points,
                                                  la::Metric::kCosine);
      } else {
        ++llm_refusals;
      }
    }

    // --- DUST diversification over the unionable tuples. ---
    {
      diversify::DiversifyInput input;
      input.query = &workload.query;
      input.lake = &workload.lake;
      input.table_of = &workload.table_of;
      diversify::DustDiversifier dust;
      std::vector<size_t> selected = dust.SelectDiverse(input, k);
      std::vector<la::Vec> points;
      for (size_t i : selected) points.push_back(workload.lake[i]);
      scores["DUST"] =
          diversify::ScoreDiversity(workload.query, points, la::Metric::kCosine);
    }

    std::string best_avg;
    std::string best_min;
    double best_avg_score = -1.0;
    double best_min_score = -1.0;
    for (const auto& [label, s] : scores) {
      if (s.average > best_avg_score) {
        best_avg_score = s.average;
        best_avg = label;
      }
      if (s.min > best_min_score) {
        best_min_score = s.min;
        best_min = label;
      }
    }
    ++wins[best_avg].avg;
    ++wins[best_min].min;
  }

  std::printf("\n--- %s (k=%zu, %zu queries) ---\n", name.c_str(), k,
              queries_run);
  bench::PrintRow({"Method", "#Average", "#Min"});
  for (const char* label : {"Starmie", "LLM", "DUST"}) {
    if (!include_llm && std::string(label) == "LLM") continue;
    bench::PrintRow({label, std::to_string(wins[label].avg),
                     std::to_string(wins[label].min)});
  }
  if (include_llm && llm_refusals > 0) {
    std::printf("LLM refused %zu oversized queries (input token limit)\n",
                llm_refusals);
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table 3 reproduction: DUST vs table union search techniques");

  {
    datagen::SantosConfig config;
    config.num_queries = 8;
    config.unionable_per_query = 8;
    config.base_rows = 200;
    RunBenchmark("SANTOS", datagen::GenerateSantos(config), /*k=*/60,
                 /*include_llm=*/false);
  }
  {
    datagen::UgenConfig config;
    config.num_queries = 10;
    RunBenchmark("UGEN-V1", datagen::GenerateUgen(config), /*k=*/30,
                 /*include_llm=*/true);
  }

  std::printf(
      "\nPaper shape (Table 3): DUST wins the large majority of queries on\n"
      "both metrics in both benchmarks; the LLM is the runner-up on UGEN\n"
      "(novel at first, then redundant); Starmie's similarity ranking\n"
      "returns near-copies of query tuples. LLM is excluded from SANTOS\n"
      "(query tables exceed its input token limit).\n");
  return 0;
}

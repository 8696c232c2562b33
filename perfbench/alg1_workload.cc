// The Algorithm 1 workloads (alg1_tus, alg1_wide): one caller in a closed
// loop sends seeded row-subset variants of the lake's 10 query tables to
// DustPipeline::Run (k = 30, pipeline defaults, seeded DustModel encoder).
//
// Untraced runs time Run and report the end-to-end metrics. Traced runs
// alternate an untraced Run with a replay of the same query phase by phase
// through the library's public functions, with one span per layer recorded
// from this file; the replay must select exactly the provenance Run
// returned.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>

#include "align/holistic_aligner.h"
#include "align/tuple_builder.h"
#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "core/pipeline.h"
#include "diversify/dust_diversifier.h"
#include "diversify/metrics.h"
#include "embed/column_embedder.h"
#include "nn/dust_model.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "perfbench/stats.h"
#include "perfbench/workload.h"
#include "search/embedding_search.h"
#include "table/serialize.h"

namespace dust::perfbench {
namespace {

constexpr size_t kK = 30;
constexpr size_t kVariantsPerQuery = 4;
/// Variants keep this share of their query table's rows, or more.
constexpr double kMinRowShare = 0.6;

/// Layer spans of one replayed query, in pipeline order.
const char* const kLayers[] = {
    "search",          "align.column_embed",        "align.match",
    "align.build_tuples", "embed",                  "diversify.prune",
    "diversify.distance_matrix", "diversify.nn_chain", "diversify.cut_medoid",
    "diversify.rerank"};

/// One query of the pool and the output its first Run selected.
struct Variant {
  table::Table query;
  bool ran = false;
  std::vector<table::TupleRef> provenance;
  table::Table output;
};

/// Rounds of one variant per query table, each round in seeded order, so
/// any stretch of the round-robin load covers the tables evenly: per-query
/// cost depends mostly on the table.
std::vector<Variant> MakePool(const Lake& lake, uint64_t seed) {
  Rng rng(seed);
  const std::vector<datagen::GeneratedTable>& queries = lake.benchmark.queries;
  std::vector<Variant> pool;
  for (size_t v = 0; v < kVariantsPerQuery; ++v) {
    for (size_t q : rng.Permutation(queries.size())) {
      const table::Table& query = queries[q].data;
      const size_t min_rows = static_cast<size_t>(
          std::ceil(kMinRowShare * static_cast<double>(query.num_rows())));
      Variant variant;
      variant.query = RowSubset(query, min_rows, query.num_rows(), &rng,
                                query.name() + "_v" + std::to_string(v));
      pool.push_back(std::move(variant));
    }
  }
  return pool;
}

bool SameProvenance(const std::vector<table::TupleRef>& a,
                    const std::vector<table::TupleRef>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Checks one Run result: ok, k tuples that exist in the lake, and the same
/// selection every time this variant runs.
void CheckRun(const Result<core::PipelineResult>& result, const Lake& lake,
              Variant* variant, Report* report) {
  const std::string& name = variant->query.name();
  if (!result.ok()) {
    report->Fail(name + ": " + result.status().ToString());
    return;
  }
  const core::PipelineResult& run = result.value();
  if (run.provenance.size() != kK || run.output.num_rows() != kK) {
    report->Fail(name + ": selected " +
                 std::to_string(run.provenance.size()) + " tuples, not " +
                 std::to_string(kK));
    return;
  }
  for (const table::TupleRef& ref : run.provenance) {
    if (ref.table_index >= lake.tables.size() ||
        ref.row_index >= lake.tables[ref.table_index]->num_rows()) {
      report->Fail(name + ": provenance outside the lake");
      return;
    }
  }
  if (!variant->ran) {
    variant->ran = true;
    variant->provenance = run.provenance;
    variant->output = run.output;
  } else if (!SameProvenance(variant->provenance, run.provenance)) {
    report->Fail(name + ": selection changed between runs");
  }
}

/// Spans of one replayed query under a fresh trace id. Layer spans are
/// recorded with obs::RecordSpan as children of the query's root span.
class QueryTrace {
 public:
  QueryTrace()
      : trace_id_(obs::NewTraceId()),
        root_id_(obs::NewSpanId()),
        start_(Clock::now()) {}

  Clock::time_point start() const { return start_; }

  /// Ends layer `name` begun at `begin`. Returns the clock after recording,
  /// so span bookkeeping lands between layers, in the unaccounted time.
  Clock::time_point Close(const char* name, Clock::time_point begin) {
    const Clock::time_point end = Clock::now();
    obs::RecordSpan(trace_id_, 0, root_id_, name, Micros(begin), Micros(end));
    layer_ms_[name] +=
        std::chrono::duration<double, std::milli>(end - begin).count();
    return Clock::now();
  }

  /// Records the root span; returns the query's traced total in ms.
  double Finish() {
    const Clock::time_point end = Clock::now();
    obs::RecordSpan(trace_id_, root_id_, 0, "alg1.query", Micros(start_),
                    Micros(end));
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

  /// Time of layer `name` (0 when the query skipped it).
  double LayerMs(const std::string& name) const {
    auto it = layer_ms_.find(name);
    return it == layer_ms_.end() ? 0.0 : it->second;
  }

 private:
  uint64_t trace_id_;
  uint64_t root_id_;
  Clock::time_point start_;
  std::map<std::string, double> layer_ms_;
};

/// Per-query layer samples of a traced run.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  double MedianOf(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : Median(it->second);
  }
};

/// The search engine DustPipeline builds for `config` (flat, starmie).
search::EmbeddingSearchConfig ReplaySearchConfig(
    const core::PipelineConfig& config) {
  search::EmbeddingSearchConfig embedding;
  embedding.encoder.dim = config.embedding_dim;
  embedding.encoder.seed = config.seed;
  embedding.index_type = config.EffectiveSearchIndex();
  embedding.shortlist = config.search_shortlist;
  embedding.cascade = config.cascade;
  return embedding;
}

/// Algorithm 1 for one query, phase by phase, as DustPipeline::Run runs it.
/// Returns the lake-level provenance of the selected tuples.
Result<std::vector<table::TupleRef>> Replay(
    const core::PipelineConfig& config,
    const search::EmbeddingUnionSearch& search,
    const embed::TupleEncoder& encoder, const Lake& lake,
    const table::Table& query, size_t k, QueryTrace* trace,
    LayerSamples* samples) {
  Clock::time_point t = trace->start();

  std::vector<search::TableHit> tables =
      search.SearchTables(query, config.num_tables);
  while (tables.size() > 1 && tables.back().score < config.min_table_score) {
    tables.pop_back();
  }
  t = trace->Close("search", t);
  for (const search::cascade::StageStats& stage : search.last_stage_stats()) {
    if (stage.stage == "rerank") {
      samples->Add("search.tables_scored", static_cast<double>(stage.in));
    }
  }
  if (tables.empty()) return Status::NotFound("no unionable tables found");

  std::vector<const table::Table*> retrieved;
  for (const search::TableHit& hit : tables) {
    retrieved.push_back(lake.tables[hit.table_index]);
  }
  embed::ColumnEmbedder column_embedder(
      embed::MakeEmbedder(config.column_model,
                          embed::DefaultConfigFor(config.column_model,
                                                  config.embedding_dim,
                                                  config.seed)),
      config.column_serialization);
  std::vector<const table::Table*> all_tables = {&query};
  all_tables.insert(all_tables.end(), retrieved.begin(), retrieved.end());
  std::vector<std::vector<la::Vec>> column_embeddings =
      column_embedder.EmbedTables(all_tables);
  t = trace->Close("align.column_embed", t);

  align::AlignmentResult alignment = align::HolisticAligner(config.aligner)
                                         .Align(query, retrieved,
                                                column_embeddings);
  t = trace->Close("align.match", t);

  Result<align::UnionableTuples> built =
      align::BuildUnionableTuples(query, retrieved, alignment);
  t = trace->Close("align.build_tuples", t);
  if (!built.ok()) return built.status();
  const align::UnionableTuples& unionable = built.value();
  const size_t unioned = unionable.serialized.size();
  samples->Add("align.unioned_tuples", static_cast<double>(unioned));
  if (unioned == 0) {
    return Status::NotFound("alignment produced no unionable tuples");
  }

  std::vector<la::Vec> lake_embeddings;
  lake_embeddings.reserve(unioned);
  for (const std::string& ser : unionable.serialized) {
    lake_embeddings.push_back(encoder.EncodeSerialized(ser));
  }
  std::vector<la::Vec> query_embeddings;
  for (const std::string& ser : unionable.query_serialized) {
    query_embeddings.push_back(encoder.EncodeSerialized(ser));
  }
  t = trace->Close("embed", t);
  const double embedded =
      static_cast<double>(unioned + unionable.query_serialized.size());
  samples->Add("embed.tuples", embedded);
  samples->Add("embed.us_per_tuple", 1000.0 * trace->LayerMs("embed") /
                                         embedded);

  std::vector<size_t> table_of(unioned);
  for (size_t i = 0; i < unioned; ++i) {
    table_of[i] = unionable.provenance[i].table_index;
  }
  diversify::DiversifyInput input;
  input.query = &query_embeddings;
  input.lake = &lake_embeddings;
  input.metric = config.metric;
  input.table_of = &table_of;
  const diversify::DustDiversifierConfig& dc = config.diversifier;
  k = std::min(k, unioned);

  std::vector<size_t> kept(unioned);
  std::iota(kept.begin(), kept.end(), 0);
  if (dc.enable_pruning) {
    kept = diversify::DustDiversifier(dc).PruneTuples(
        input, std::max(dc.prune_s, k));
  }
  t = trace->Close("diversify.prune", t);
  samples->Add("diversify.prune.kept_ratio",
               static_cast<double>(kept.size()) / static_cast<double>(unioned));

  std::vector<size_t> candidates;
  const size_t num_clusters =
      std::min(kept.size(), k * std::max<size_t>(1, dc.p));
  double matrix_mb = 0.0;
  if (kept.size() <= num_clusters) {
    candidates = kept;
  } else {
    std::vector<la::Vec> pruned_points;
    pruned_points.reserve(kept.size());
    for (size_t i : kept) pruned_points.push_back(lake_embeddings[i]);
    la::DistanceMatrix distances(pruned_points, input.metric);
    t = trace->Close("diversify.distance_matrix", t);
    matrix_mb = static_cast<double>(distances.size() * distances.size() *
                                    sizeof(float)) /
                (1024.0 * 1024.0);

    cluster::Dendrogram dendrogram =
        cluster::AgglomerativeCluster(distances, dc.linkage);
    t = trace->Close("diversify.nn_chain", t);

    std::vector<size_t> labels =
        cluster::CutDendrogram(dendrogram, num_clusters);
    for (const auto& members : cluster::GroupByLabel(labels)) {
      if (members.empty()) continue;
      candidates.push_back(kept[cluster::MedoidOf(members, distances)]);
    }
    t = trace->Close("diversify.cut_medoid", t);
  }
  samples->Add("diversify.distance_matrix.mb", matrix_mb);
  samples->Add("diversify.candidates", static_cast<double>(candidates.size()));

  std::vector<size_t> ranked =
      diversify::RankCandidatesAgainstQuery(input, candidates);
  if (ranked.size() > k) ranked.resize(k);
  trace->Close("diversify.rerank", t);

  std::vector<table::TupleRef> provenance;
  for (size_t i : ranked) {
    table::TupleRef ref = unionable.provenance[i];
    ref.table_index = tables[ref.table_index].table_index;
    provenance.push_back(ref);
  }
  return provenance;
}

/// Runs every pool variant the timed window did not reach, so the digest
/// always covers the whole pool.
void CompletePool(const core::DustPipeline& pipeline, const Lake& lake,
                  std::vector<Variant>* pool, Report* report) {
  for (Variant& variant : *pool) {
    if (variant.ran) continue;
    ++report->attempted;
    CheckRun(pipeline.Run(variant.query, kK), lake, &variant, report);
    if (!variant.ran) variant.ran = true;  // failed: digest covers it empty
  }
}

uint64_t ProvenanceDigest(const std::vector<Variant>& pool) {
  uint64_t h = 0;
  for (const Variant& variant : pool) {
    h = FnvMix(h, variant.provenance.size());
    for (const table::TupleRef& ref : variant.provenance) {
      h = FnvMix(h, ref.table_index);
      h = FnvMix(h, ref.row_index);
    }
  }
  return h;
}

}  // namespace

void RunAlg1(const RunOptions& options, size_t unionable_per_query,
             size_t base_rows, size_t distractors_per_base, Report* report) {
  const Lake lake =
      MakeLake(unionable_per_query, base_rows, distractors_per_base);
  std::vector<Variant> pool = MakePool(lake, options.seed);
  Log("%s: %zu lake tables, %zu rows, %zu query variants",
      options.workload.c_str(), lake.tables.size(), lake.rows, pool.size());

  const core::PipelineConfig config;
  nn::DustModelConfig model_config;
  model_config.embedding_dim = config.embedding_dim;
  const auto encoder = std::make_shared<nn::DustModel>(model_config);

  const auto make_pipeline = [&] {
    return std::make_unique<core::DustPipeline>(config, encoder);
  };
  const auto index_lake = [&](core::DustPipeline& p) {
    p.IndexLake(lake.tables);
  };
  std::vector<double> setup_s;
  const std::unique_ptr<core::DustPipeline> pipeline =
      TimeSetup(make_pipeline, index_lake, &setup_s);

  std::unique_ptr<search::EmbeddingUnionSearch> replay_search;
  if (options.trace) {
    replay_search = std::make_unique<search::EmbeddingUnionSearch>(
        ReplaySearchConfig(config));
    replay_search->IndexLake(lake.tables);
  }

  // Warm-up: one query, untimed.
  ++report->attempted;
  CheckRun(pipeline->Run(pool[0].query, kK), lake, &pool[0], report);

  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  std::vector<double> unaccounted_ms;
  LayerSamples samples;
  const Clock::time_point window_start = Clock::now();
  const auto deadline =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    Variant& variant = pool[i % pool.size()];
    ++report->attempted;
    std::vector<table::TupleRef> run_provenance;
    const auto timed_run = [&] {
      const Clock::time_point start = Clock::now();
      Result<core::PipelineResult> result = pipeline->Run(variant.query, kK);
      latency_ms.push_back(MsSince(start));
      CheckRun(result, lake, &variant, report);
      if (result.ok()) run_provenance = result.value().provenance;
    };
    if (!options.trace) {
      timed_run();
      continue;
    }
    // Traced: the untraced Run and the traced replay of the same query,
    // alternating which goes first; both count as attempted.
    ++report->attempted;
    if (i % 2 == 0) timed_run();
    QueryTrace trace;
    Result<std::vector<table::TupleRef>> replayed =
        Replay(config, *replay_search, *encoder, lake, variant.query, kK,
               &trace, &samples);
    const double total_ms = trace.Finish();
    if (i % 2 == 1) timed_run();
    traced_ms.push_back(total_ms);
    std::vector<double> layers;
    for (const char* layer : kLayers) {
      layers.push_back(trace.LayerMs(layer));
      samples.Add(std::string(layer) + ".ms", trace.LayerMs(layer));
    }
    unaccounted_ms.push_back(UnaccountedMs(total_ms, layers));
    if (!replayed.ok()) {
      report->Fail(variant.query.name() + ": replay " +
                   replayed.status().ToString());
    } else if (!SameProvenance(replayed.value(), run_provenance)) {
      report->Fail(variant.query.name() +
                   ": replay selected other tuples than Run");
    }
  }
  const double window_s = MsSince(window_start) / 1000.0;
  // Taken before the checks below, which allocate on their own account.
  const double peak_rss_mb = PeakRssMb();
  CompletePool(*pipeline, lake, &pool, report);
  LogWindow(options.workload, latency_ms, window_s);

  // The answers to the lake's 10 query tables themselves, outside the
  // window: a fixed set whatever the seed, so their digest and diversity
  // (Eq. 1, Eq. 2) move only when the selected tuples do.
  const std::vector<datagen::GeneratedTable>& queries = lake.benchmark.queries;
  std::vector<Variant> originals(queries.size());
  double avg_diversity = 0.0;
  double min_diversity = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    Variant& original = originals[q];
    original.query = queries[q].data;
    ++report->attempted;
    CheckRun(pipeline->Run(original.query, kK), lake, &original, report);
    if (options.trace || !original.ran) continue;
    const diversify::DiversityScores scores = diversify::ScoreDiversity(
        encoder->EncodeTableRows(original.query),
        encoder->EncodeTableRows(original.output), config.metric);
    avg_diversity += scores.average / static_cast<double>(queries.size());
    min_diversity += scores.min / static_cast<double>(queries.size());
  }
  CheckDigest(options.workload + " query tables", ProvenanceDigest(originals),
              options.expect_queries_digest, report);
  CheckDigest(options.workload + " pool", ProvenanceDigest(pool),
              options.expect_pool_digest, report);

  if (options.trace) {
    for (const char* layer : kLayers) {
      const std::string name = std::string(layer) + ".ms";
      report->Set(name, samples.MedianOf(name));
    }
    for (const char* count :
         {"search.tables_scored", "align.unioned_tuples", "embed.tuples"}) {
      report->Set(count, samples.MedianOf(count));
    }
    report->Set("embed.us_per_tuple", samples.MedianOf("embed.us_per_tuple"));
    report->Set("diversify.prune.kept_ratio",
                samples.MedianOf("diversify.prune.kept_ratio"));
    report->Set("diversify.distance_matrix.mb",
                samples.MedianOf("diversify.distance_matrix.mb"));
    report->Set("diversify.candidates",
                samples.MedianOf("diversify.candidates"));
    report->Set("core.unaccounted_ms", Median(unaccounted_ms));
    report->Set("trace.e2e_ms", Median(traced_ms));
    report->Set("trace.untraced_ms", Median(latency_ms));
    report->Set("trace.overhead_pct",
                100.0 * (Mean(traced_ms) - Mean(latency_ms)) /
                    Mean(latency_ms));
    if (!options.trace_out.empty()) {
      Status written = obs::WriteChromeTrace(
          options.trace_out, obs::SpanCollector::Global().Snapshot(),
          "dust_perfbench " + options.workload);
      if (!written.ok()) {
        Log("trace export: %s", written.ToString().c_str());
      }
    }
    return;
  }

  TimeSetup(make_pipeline, index_lake, &setup_s);
  report->Set("setup_s", Median(setup_s));
  report->Set("queries_per_s",
              static_cast<double>(latency_ms.size()) / window_s);
  report->Set("latency_p50_ms", Percentile(latency_ms, 50.0));
  report->Set("latency_p95_ms", Percentile(latency_ms, 95.0));
  report->Set("ok_frac",
              1.0 - static_cast<double>(report->failed) /
                        static_cast<double>(report->attempted));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Set("avg_diversity", avg_diversity);
  report->Set("min_diversity", min_diversity);
}

}  // namespace dust::perfbench

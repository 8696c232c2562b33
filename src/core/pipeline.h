// DustPipeline — Algorithm 1 end to end.
//
//   D' ← SearchTables(Q, D)         table union search (src/search)
//   T  ← AlignColumns(Q, D')        holistic alignment + outer union
//   E  ← EmbedTuples(Q, T)          fine-tuned tuple encoder (src/nn)
//   F  ← DiversifyTuples(E_Q, E_T)  Algorithm 2 (src/diversify)
//
// The pipeline owns the search engine and aligner; the tuple encoder is
// injected (DustModel or any pretrained encoder) so experiments can swap
// representations.
#ifndef DUST_CORE_PIPELINE_H_
#define DUST_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "align/holistic_aligner.h"
#include "align/tuple_builder.h"
#include "diversify/dust_diversifier.h"
#include "embed/tuple_encoder.h"
#include "search/cascade/candidate_stage.h"
#include "search/union_search.h"
#include "table/table.h"
#include "util/status.h"

namespace dust::core {

/// Serving-layer knobs carried alongside the pipeline config — consumed by
/// serve::QueryServer (via dust_cli --serve or an embedding application),
/// never by Algorithm 1 itself. They shape scheduling and caching only,
/// not results, so they are deliberately excluded from the snapshot
/// staleness hash: changing them must not invalidate saved indexes.
struct ServingConfig {
  /// Result-cache capacity in entries; 0 disables the cache.
  size_t cache_entries = 1024;
  /// Result-cache capacity in bytes of cached hit lists.
  size_t cache_bytes = size_t{64} << 20;
  /// Result-cache lock stripes (1 = globally LRU-ordered).
  size_t cache_stripes = 16;
  /// Export the serve::Metrics registry (human table + text exposition).
  bool metrics = true;
};

struct PipelineConfig {
  /// Top-N unionable tables retrieved by the search phase.
  size_t num_tables = 10;
  /// Tables scoring below this are dropped after search (at least the best
  /// table is always kept). Keeps weakly-unionable tables from polluting
  /// the outer union with null-padded "diverse" junk.
  double min_table_score = 0.25;
  /// Union search engine: "starmie" (embedding) or "d3l" (overlap).
  std::string engine = "starmie";
  /// Shortlist index for the starmie engine: "flat", "ivf", "hnsw", or a
  /// full sharded spec such as "sharded:hnsw:4:hash".
  std::string search_index = "flat";
  /// Candidates short-listed by that index before exact bipartite scoring.
  /// 0 = score every lake table exactly when the effective search index is
  /// "flat"; with any other index (approximate or sharded), 0 resolves to
  /// DefaultShortlist(num_tables) so the index is never a silent no-op.
  /// Ignored by the d3l engine.
  size_t search_shortlist = 0;
  /// Shards for the shortlist index. 0 = search_index as given; N >= 1
  /// wraps it into "sharded:<search_index>:<N>" (round-robin placement —
  /// spell out a full sharded spec in search_index for hash placement).
  /// search_index must not already be a sharded spec when this is set.
  size_t search_shards = 0;
  /// HNSW tuning knobs for the shortlist index (HnswConfig::M /
  /// ::ef_search; 0 keeps the defaults). Invalid values (M == 1) abort at
  /// pipeline construction — CLI and config loaders should pre-validate
  /// with index::ValidateIndexOptions.
  size_t hnsw_m = 0;
  size_t hnsw_ef_search = 0;
  /// Staged retrieval cascade for the starmie engine: type prefilter and
  /// MinHash prescreen ahead of the vector shortlist (src/search/cascade/).
  /// Default-off; the d3l engine rejects it at pipeline construction. Every
  /// knob shapes results, so all of them are baked into the snapshot
  /// staleness hash, and IndexLake's per-table sketches persist in
  /// snapshots (format v2).
  search::cascade::CascadeConfig cascade;

  /// Shortlist used when an approximate search_index is requested with
  /// search_shortlist == 0.
  static size_t DefaultShortlist(size_t num_tables) {
    return num_tables * 5 > 50 ? num_tables * 5 : 50;
  }
  /// The index spec IndexLake actually builds: search_index, wrapped into
  /// "sharded:<search_index>:<search_shards>" when search_shards > 0.
  std::string EffectiveSearchIndex() const;
  /// Column embedding used for alignment (Column-level RoBERTa wins
  /// Table 1 and is DUST's choice, Sec. 6.2.4).
  embed::ModelFamily column_model = embed::ModelFamily::kRoberta;
  embed::ColumnSerialization column_serialization =
      embed::ColumnSerialization::kColumnLevel;
  size_t embedding_dim = 64;
  uint64_t seed = 1234;
  align::AlignerConfig aligner;
  diversify::DustDiversifierConfig diversifier;
  la::Metric metric = la::Metric::kCosine;
  /// Serving-layer (QueryServer) knobs; see ServingConfig. Not hashed into
  /// SnapshotHash — they never change results.
  ServingConfig serving;
};

struct PipelineResult {
  /// The retrieved unionable tables, best first.
  std::vector<search::TableHit> tables;
  align::AlignmentResult alignment;
  /// The k selected diverse tuples under the query schema.
  table::Table output;
  /// Provenance of each output row: (index into the *lake*, row index).
  std::vector<table::TupleRef> provenance;
  struct Timings {
    double search_seconds = 0.0;
    double align_seconds = 0.0;
    double embed_seconds = 0.0;
    double diversify_seconds = 0.0;
  } timings;
};

/// End-to-end diverse unionable tuple search.
class DustPipeline {
 public:
  DustPipeline(PipelineConfig config,
               std::shared_ptr<embed::TupleEncoder> tuple_encoder);

  /// Indexes the data lake once (search-phase indexes).
  void IndexLake(const std::vector<const table::Table*>& lake);

  /// Persists the state IndexLake built — the search engine's lake
  /// embeddings and shortlist index, the id-to-table mapping, and a hash of
  /// every config field and lake shape that shaped that state — so serving
  /// processes can LoadSnapshot instead of re-embedding the lake. Requires
  /// IndexLake to have run; the d3l engine does not support snapshots.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a SaveSnapshot file against the same lake tables (still
  /// needed online for alignment and tuple materialization). A snapshot
  /// whose config hash does not match this pipeline's config and `lake` is
  /// rejected with FailedPrecondition rather than silently mis-served.
  Status LoadSnapshot(const std::string& path,
                      const std::vector<const table::Table*>& lake);

  /// Runs Algorithm 1 for one query, returning `k` diverse tuples.
  Result<PipelineResult> Run(const table::Table& query, size_t k) const;

  /// Routes the search engine's index fan-out (e.g. a sharded shortlist's
  /// per-query scatter) through a shared thread pool, so a serving process
  /// creates zero threads per Run. Install once before concurrent traffic;
  /// the executor must outlive the pipeline or be unset first.
  void SetExecutor(serve::Executor* executor) {
    search_->SetExecutor(executor);
  }

  /// Cumulative per-stage cascade statistics of the search engine (see
  /// CascadeSearch::StatsSummary); empty for engines without a cascade.
  std::string CascadeStatsSummary() const {
    return search_->CascadeStatsSummary();
  }

  const PipelineConfig& config() const { return config_; }

 private:
  /// Hash of the embedding/search config plus the lake's shape (per-table
  /// name and row/column counts). Staleness guard: it detects config drift
  /// and added/removed/reshaped tables, not in-place cell edits.
  uint64_t SnapshotHash(const std::vector<const table::Table*>& lake) const;

  PipelineConfig config_;
  std::shared_ptr<embed::TupleEncoder> tuple_encoder_;
  std::unique_ptr<search::UnionSearch> search_;
  std::vector<const table::Table*> lake_;
};

}  // namespace dust::core

#endif  // DUST_CORE_PIPELINE_H_

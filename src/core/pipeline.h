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
#include "search/embedding_search.h"
#include "search/union_search.h"
#include "table/table.h"
#include "util/status.h"

namespace dust::core {

struct PipelineConfig {
  /// Top-N unionable tables retrieved by the search phase.
  size_t num_tables = 10;
  /// Tables scoring below this are dropped after search (at least the best
  /// table is always kept). Keeps weakly-unionable tables from polluting
  /// the outer union with null-padded "diverse" junk.
  double min_table_score = 0.25;
  /// Union search engine: "starmie" (embedding) or "d3l" (overlap); any
  /// other name aborts at pipeline construction.
  std::string engine = "starmie";
  /// Shortlist index for the starmie engine: "flat" or "hnsw".
  std::string search_index = "flat";
  /// Candidates short-listed by that index before exact bipartite scoring.
  /// 0 = score every lake table exactly when search_index is "flat"; with
  /// an approximate index, 0 resolves to DefaultShortlist(num_tables) so
  /// the index is never a silent no-op. Ignored by the d3l engine.
  size_t search_shortlist = 0;
  /// HNSW tuning knobs for the shortlist index (HnswConfig::M /
  /// ::ef_search; 0 keeps the defaults). Invalid values (M == 1) abort at
  /// pipeline construction — CLI and config loaders should pre-validate
  /// with index::ValidateIndexOptions.
  size_t hnsw_m = 0;
  size_t hnsw_ef_search = 0;
  /// Empty. Kept only for perfbench's replay of the pipeline constructor,
  /// like EffectiveSearchIndex(); both go with that replay.
  search::cascade::CascadeConfig cascade;

  /// Shortlist used when an approximate search_index is requested with
  /// search_shortlist == 0.
  static size_t DefaultShortlist(size_t num_tables) {
    return num_tables * 5 > 50 ? num_tables * 5 : 50;
  }
  /// search_index. Kept only for perfbench's replay of the pipeline
  /// constructor; new code reads search_index.
  std::string EffectiveSearchIndex() const { return search_index; }
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
  /// embeddings and shortlist index, and a hash of every config field and
  /// lake shape that shaped that state — so serving processes can
  /// LoadSnapshot instead of re-embedding the lake. Requires IndexLake to
  /// have run; the d3l engine does not support snapshots.
  Status SaveSnapshot(const std::string& path) const;

  /// Restores a SaveSnapshot file against the same lake tables (still
  /// needed online for alignment and tuple materialization). A snapshot
  /// whose config hash does not match this pipeline's config and `lake` is
  /// rejected with FailedPrecondition rather than silently mis-served, a
  /// snapshot of another format version with an IoError that says to
  /// rebuild it, and a file with bytes after the engine state with an
  /// IoError that counts them. A failed load changes nothing: the pipeline
  /// keeps serving the lake it had.
  Status LoadSnapshot(const std::string& path,
                      const std::vector<const table::Table*>& lake);

  /// Runs Algorithm 1 for one query, returning `k` diverse tuples. Its
  /// parallel work runs on serve::Executor::Current(); the output is the
  /// same on every executor.
  Result<PipelineResult> Run(const table::Table& query, size_t k) const;

  const PipelineConfig& config() const { return config_; }

 private:
  /// Hash of the embedding/search config plus the lake's shape (per-table
  /// name and row/column counts). Staleness guard: it detects config drift
  /// and added/removed/reshaped tables, not in-place cell edits.
  uint64_t SnapshotHash(const std::vector<const table::Table*>& lake) const;

  /// EncodeSerialized of every tuple, each into its own slot, on
  /// serve::Executor::Current(). The claims change no bit: each embedding
  /// is a pure function of its tuple.
  std::vector<la::Vec> EncodeTuples(
      const std::vector<std::string>& serialized) const;

  PipelineConfig config_;
  std::shared_ptr<embed::TupleEncoder> tuple_encoder_;
  std::unique_ptr<search::UnionSearch> search_;
  std::vector<const table::Table*> lake_;
};

}  // namespace dust::core

#endif  // DUST_CORE_PIPELINE_H_

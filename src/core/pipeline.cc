#include "core/pipeline.h"

#include <algorithm>

#include "embed/column_embedder.h"
#include "index/vector_index.h"
#include "io/index_io.h"
#include "search/embedding_search.h"
#include "search/overlap_search.h"
#include "serve/executor.h"
#include "text/hashing.h"
#include "util/stopwatch.h"

namespace dust::core {
namespace {

/// Snapshot file format version; bump on any layout change. v3 is the
/// header (magic "DUSTSNAP", this u32 version, the u64 SnapshotHash), then
/// the engine state: a u64 table count, each table's column embeddings
/// (IndexWriter::WriteVecs), a u8 has-index flag and, when it is set, the
/// profile index (io::WriteIndex).
constexpr uint32_t kSnapshotFormatVersion = 3;

/// EncodeTuples' grain: 64 tuples take about 0.28 ms at 4.3 us a tuple,
/// 17 round trips of an empty pooled ParallelFor (16 us at the median on
/// 4 vCPUs).
constexpr size_t kEncodeGrainTuples = 64;

}  // namespace

DustPipeline::DustPipeline(PipelineConfig config,
                           std::shared_ptr<embed::TupleEncoder> tuple_encoder)
    : config_(std::move(config)), tuple_encoder_(std::move(tuple_encoder)) {
  DUST_CHECK(tuple_encoder_ != nullptr);
  DUST_CHECK(config_.engine == "starmie" || config_.engine == "d3l");
  if (config_.engine == "d3l") {
    search::OverlapSearchConfig overlap;
    overlap.embedding_dim = config_.embedding_dim;
    overlap.seed = config_.seed;
    search_ = std::make_unique<search::OverlapUnionSearch>(overlap);
  } else {
    // Fail fast on a typo'd index name or nonsense tuning knob here, where
    // the config enters the pipeline, rather than deep inside IndexLake.
    const std::string& index_spec = config_.search_index;
    DUST_CHECK(index::IsKnownIndexType(index_spec));
    search::EmbeddingSearchConfig embedding;
    embedding.encoder.dim = config_.embedding_dim;
    embedding.encoder.seed = config_.seed;
    embedding.index_type = index_spec;
    embedding.index_options.hnsw_m = config_.hnsw_m;
    embedding.index_options.hnsw_ef_search = config_.hnsw_ef_search;
    DUST_CHECK(index::ValidateIndexOptions(embedding.index_options).ok());
    embedding.shortlist = config_.search_shortlist;
    if (index_spec != "flat" && config_.search_shortlist == 0) {
      // shortlist == 0 means "score everything exactly", which would make
      // the requested approximate index a silent no-op; give it work.
      embedding.shortlist =
          PipelineConfig::DefaultShortlist(config_.num_tables);
    }
    search_ = std::make_unique<search::EmbeddingUnionSearch>(embedding);
  }
}

void DustPipeline::IndexLake(const std::vector<const table::Table*>& lake) {
  lake_ = lake;
  search_->IndexLake(lake);
}

uint64_t DustPipeline::SnapshotHash(
    const std::vector<const table::Table*>& lake) const {
  uint64_t h = text::ChainHash(0, "dust-snapshot-v1");
  h = text::ChainHash(h, config_.engine);
  h = text::ChainHash(h, config_.search_index);
  h = text::ChainHash(h, config_.search_shortlist);
  h = text::ChainHash(h, config_.hnsw_m);
  h = text::ChainHash(h, config_.hnsw_ef_search);
  h = text::ChainHash(h, config_.embedding_dim);
  h = text::ChainHash(h, config_.seed);
  h = text::ChainHash(h, static_cast<uint64_t>(config_.column_model));
  h = text::ChainHash(h,
                      static_cast<uint64_t>(config_.column_serialization));
  h = text::ChainHash(h, static_cast<uint64_t>(config_.metric));
  // The retired cascade knobs were chained here; their defaults keep the
  // hash in every saved snapshot valid.
  h = search::ChainRetiredCascadeDefaults(h);
  // The lake shape is chained here rather than through the engine's
  // LakeCatalog: LoadSnapshot checks a lake no engine holds yet, and a
  // snapshot records no mutation counter.
  h = text::ChainHash(h, lake.size());
  for (const table::Table* t : lake) {
    h = text::ChainHash(h, t->name());
    h = text::ChainHash(h, t->num_columns());
    h = text::ChainHash(h, t->num_rows());
  }
  return h;
}

Status DustPipeline::SaveSnapshot(const std::string& path) const {
  if (lake_.empty()) {
    return Status::FailedPrecondition("IndexLake was not called");
  }
  io::IndexWriter writer(path);
  DUST_RETURN_IF_ERROR(writer.status());
  writer.WriteBytes(io::kSnapshotMagic, sizeof(io::kSnapshotMagic));
  writer.WriteU32(kSnapshotFormatVersion);
  writer.WriteU64(SnapshotHash(lake_));
  DUST_RETURN_IF_ERROR(writer.status());
  DUST_RETURN_IF_ERROR(search_->SaveState(&writer));
  return writer.Close();
}

Status DustPipeline::LoadSnapshot(
    const std::string& path, const std::vector<const table::Table*>& lake) {
  if (lake.empty()) {
    return Status::InvalidArgument("cannot load a snapshot over an empty lake");
  }
  io::IndexReader reader(path);
  DUST_RETURN_IF_ERROR(reader.status());
  DUST_RETURN_IF_ERROR(
      reader.ExpectMagic(io::kSnapshotMagic, "DUST snapshot"));
  uint32_t version = 0;
  DUST_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::IoError("unsupported snapshot format version " +
                           std::to_string(version) +
                           "; rebuild the snapshot with IndexLake + "
                           "SaveSnapshot (dust_cli --save-index)");
  }
  uint64_t stored_hash = 0;
  DUST_RETURN_IF_ERROR(reader.ReadU64(&stored_hash));
  if (stored_hash != SnapshotHash(lake)) {
    return Status::FailedPrecondition(
        "stale snapshot: embedding config or lake changed since it was "
        "saved; rebuild with IndexLake + SaveSnapshot");
  }
  DUST_RETURN_IF_ERROR(search_->LoadState(&reader, lake));
  lake_ = lake;
  return Status::Ok();
}

std::vector<la::Vec> DustPipeline::EncodeTuples(
    const std::vector<std::string>& serialized) const {
  std::vector<la::Vec> out(serialized.size());
  serve::Executor& pool = serve::Executor::Current();
  pool.ParallelFor(serialized.size(), kEncodeGrainTuples,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       out[i] = tuple_encoder_->EncodeSerialized(serialized[i]);
                     }
                   });
  return out;
}

Result<PipelineResult> DustPipeline::Run(const table::Table& query,
                                         size_t k) const {
  if (lake_.empty()) {
    return Status::FailedPrecondition("IndexLake was not called");
  }
  if (query.num_columns() == 0) {
    return Status::InvalidArgument("query table has no columns");
  }
  PipelineResult result;
  Stopwatch watch;

  // --- SearchTables (Algorithm 1, line 3) ---
  result.tables = search_->SearchTables(query, config_.num_tables);
  result.timings.search_seconds = watch.Seconds();
  if (result.tables.empty()) {
    return Status::NotFound("no unionable tables found");
  }
  // Drop weakly-unionable tables; always keep the top hit.
  while (result.tables.size() > 1 &&
         result.tables.back().score < config_.min_table_score) {
    result.tables.pop_back();
  }

  // --- AlignColumns (line 5) ---
  watch.Restart();
  std::vector<const table::Table*> retrieved;
  retrieved.reserve(result.tables.size());
  for (const search::TableHit& hit : result.tables) {
    retrieved.push_back(lake_[hit.table_index]);
  }
  auto encoder = embed::MakeEmbedder(
      config_.column_model,
      embed::DefaultConfigFor(config_.column_model, config_.embedding_dim,
                              config_.seed));
  embed::ColumnEmbedder column_embedder(std::move(encoder),
                                        config_.column_serialization);
  std::vector<const table::Table*> all_tables;
  all_tables.push_back(&query);
  for (const table::Table* t : retrieved) all_tables.push_back(t);
  std::vector<std::vector<la::Vec>> column_embeddings =
      column_embedder.EmbedTables(all_tables);
  align::HolisticAligner aligner(config_.aligner);
  result.alignment = aligner.Align(query, retrieved, column_embeddings);

  Result<align::UnionableTuples> tuples =
      align::BuildUnionableTuples(query, retrieved, result.alignment);
  if (!tuples.ok()) return tuples.status();
  const align::UnionableTuples& unionable = tuples.value();
  result.timings.align_seconds = watch.Seconds();

  if (unionable.unioned.num_rows() == 0) {
    return Status::NotFound("alignment produced no unionable tuples");
  }

  // --- EmbedTuples (line 7) ---
  watch.Restart();
  std::vector<la::Vec> lake_embeddings = EncodeTuples(unionable.serialized);
  std::vector<la::Vec> query_embeddings =
      EncodeTuples(unionable.query_serialized);
  result.timings.embed_seconds = watch.Seconds();

  // --- DiversifyTuples (line 8, Algorithm 2) ---
  watch.Restart();
  std::vector<size_t> table_of(unionable.provenance.size());
  for (size_t i = 0; i < unionable.provenance.size(); ++i) {
    table_of[i] = unionable.provenance[i].table_index;
  }
  diversify::DiversifyInput input;
  input.query = &query_embeddings;
  input.lake = &lake_embeddings;
  input.metric = config_.metric;
  input.table_of = &table_of;
  diversify::DustDiversifier diversifier(config_.diversifier);
  std::vector<size_t> selected = diversifier.SelectDiverse(input, k);
  result.timings.diversify_seconds = watch.Seconds();

  // Materialize the output table with lake-level provenance.
  result.output = unionable.unioned.SelectRows(selected);
  result.output.set_name("dust_output");
  result.provenance.reserve(selected.size());
  for (size_t i : selected) {
    table::TupleRef ref = unionable.provenance[i];
    // Map the retrieved-table index back to the lake index.
    ref.table_index = result.tables[ref.table_index].table_index;
    result.provenance.push_back(ref);
  }
  return result;
}

}  // namespace dust::core

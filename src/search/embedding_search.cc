#include "search/embedding_search.h"

#include <algorithm>
#include <utility>

#include "align/hungarian.h"
#include "io/index_io.h"

namespace dust::search {

EmbeddingUnionSearch::EmbeddingUnionSearch(EmbeddingSearchConfig config)
    : config_(config),
      encoder_(config.encoder),
      cascade_({"prefilter", "prescreen", "shortlist", "rerank"}),
      prefilter_stage_(&lake_signatures_, &config_.cascade),
      prescreen_stage_(&lake_sketches_, &config_.cascade),
      shortlist_stage_(&profile_index_, &lake_profiles_, config_.shortlist) {}

void EmbeddingUnionSearch::RebuildCascadeSignals(
    const std::vector<const table::Table*>& lake) {
  lake_signatures_.clear();
  lake_sketches_.clear();
  if (!config_.cascade.enabled) return;
  lake_signatures_.reserve(lake.size());
  for (const table::Table* t : lake) {
    lake_signatures_.push_back(cascade::SignatureOf(*t));
  }
  if (config_.cascade.prescreen) {
    lake_sketches_.reserve(lake.size());
    for (const table::Table* t : lake) {
      lake_sketches_.emplace_back(cascade::TableValueSample(*t),
                                  config_.cascade.minhash_hashes,
                                  config_.cascade.minhash_seed);
    }
  }
}

void EmbeddingUnionSearch::IndexLake(
    const std::vector<const table::Table*>& lake) {
  lake_columns_.clear();
  lake_profiles_.clear();
  lake_names_.clear();
  lake_columns_.reserve(lake.size());
  lake_profiles_.reserve(lake.size());
  lake_names_.reserve(lake.size());
  lake_removed_.assign(lake.size(), 0);
  for (const table::Table* t : lake) {
    lake_names_.push_back(t->name());
  }
  for (const table::Table* t : lake) {
    std::vector<la::Vec> cols = encoder_.EncodeTable(*t);
    la::Vec profile(encoder_.dim(), 0.0f);
    if (!cols.empty()) {
      profile = la::Mean(cols);
      la::NormalizeInPlace(&profile);
    }
    lake_columns_.push_back(std::move(cols));
    lake_profiles_.push_back(std::move(profile));
  }

  if (config_.shortlist > 0) {
    profile_index_ =
        index::MakeVectorIndex(config_.index_type, encoder_.dim(),
                               la::Metric::kCosine, config_.index_options);
    profile_index_->SetExecutor(executor_);
    profile_index_->AddAll(lake_profiles_);
  } else {
    profile_index_.reset();
  }
  RebuildCascadeSignals(lake);
}

void EmbeddingUnionSearch::SetExecutor(serve::Executor* executor) {
  executor_ = executor;
  if (profile_index_ != nullptr) profile_index_->SetExecutor(executor);
}

Status EmbeddingUnionSearch::RemoveTable(const std::string& name) {
  if (lake_names_.size() != lake_columns_.size()) {
    return Status::FailedPrecondition(
        "engine state was restored from a snapshot, which does not carry "
        "table names; re-run IndexLake before mutating");
  }
  for (size_t t = 0; t < lake_names_.size(); ++t) {
    if (lake_removed_[t] != 0 || lake_names_[t] != name) continue;
    lake_removed_[t] = 1;
    // Tombstone the profile too so an untouched candidate set delegating
    // straight to the index can never shortlist the removed table.
    if (profile_index_ != nullptr) profile_index_->Remove(t);
    return Status::Ok();
  }
  return Status::NotFound("no live table named " + name + " in the lake");
}

Status EmbeddingUnionSearch::AddTable(const table::Table& table) {
  if (lake_names_.size() != lake_columns_.size()) {
    return Status::FailedPrecondition(
        "engine state was restored from a snapshot, which does not carry "
        "table names; re-run IndexLake before mutating");
  }
  for (size_t t = 0; t < lake_names_.size(); ++t) {
    if (lake_removed_[t] == 0 && lake_names_[t] == table.name()) {
      return Status::InvalidArgument(
          "a live table named " + table.name() +
          " is already indexed; RemoveTable it first to replace it");
    }
  }
  std::vector<la::Vec> cols = encoder_.EncodeTable(table);
  la::Vec profile(encoder_.dim(), 0.0f);
  if (!cols.empty()) {
    profile = la::Mean(cols);
    la::NormalizeInPlace(&profile);
  }
  if (profile_index_ != nullptr) profile_index_->Add(profile);
  lake_columns_.push_back(std::move(cols));
  lake_profiles_.push_back(std::move(profile));
  lake_names_.push_back(table.name());
  lake_removed_.push_back(0);
  if (config_.cascade.enabled) {
    lake_signatures_.push_back(cascade::SignatureOf(table));
    if (config_.cascade.prescreen) {
      lake_sketches_.emplace_back(cascade::TableValueSample(table),
                                  config_.cascade.minhash_hashes,
                                  config_.cascade.minhash_seed);
    }
  }
  return Status::Ok();
}

namespace {

/// Fills `weights` (row-major, query x lake columns) with the weights the
/// table score matches on: per-pair cosine similarity, widened to double
/// and floored at 0.
void MatchingWeights(const std::vector<la::Vec>& query_cols,
                     const std::vector<la::Vec>& lake_cols,
                     std::vector<double>* weights) {
  weights->resize(query_cols.size() * lake_cols.size());
  for (size_t i = 0; i < query_cols.size(); ++i) {
    for (size_t j = 0; j < lake_cols.size(); ++j) {
      (*weights)[i * lake_cols.size() + j] = std::max(
          0.0, static_cast<double>(
                   la::CosineSimilarity(query_cols[i], lake_cols[j])));
    }
  }
}

}  // namespace

double EmbeddingUnionSearch::TableScore(
    const std::vector<la::Vec>& query_cols,
    const std::vector<la::Vec>& lake_cols) const {
  if (query_cols.empty() || lake_cols.empty()) return 0.0;
  std::vector<double> weights;
  MatchingWeights(query_cols, lake_cols, &weights);
  align::MatchingResult matching = align::MaxWeightBipartiteMatching(
      weights, query_cols.size(), lake_cols.size());
  return matching.total_weight / static_cast<double>(query_cols.size());
}

double EmbeddingUnionSearch::TableBound(
    const std::vector<la::Vec>& query_cols,
    const std::vector<la::Vec>& lake_cols) const {
  if (query_cols.empty() || lake_cols.empty()) return 0.0;
  // Runs once per candidate table, often on pool threads: keep one set of
  // buffers per thread instead of allocating per table.
  thread_local std::vector<double> weights;
  thread_local std::vector<double> column_max;
  MatchingWeights(query_cols, lake_cols, &weights);
  const size_t cols = lake_cols.size();
  column_max.assign(cols, 0.0);
  double row_sum = 0.0;
  for (size_t i = 0; i < query_cols.size(); ++i) {
    double row_max = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double w = weights[i * cols + j];
      row_max = std::max(row_max, w);
      column_max[j] = std::max(column_max[j], w);
    }
    row_sum += row_max;
  }
  double column_sum = 0.0;
  for (double m : column_max) column_sum += m;
  return std::min(row_sum, column_sum) /
         static_cast<double>(query_cols.size());
}

std::vector<TableHit> EmbeddingUnionSearch::SearchTables(
    const table::Table& query, size_t n) const {
  std::vector<la::Vec> query_cols = encoder_.EncodeTable(query);

  cascade::CandidateSet set;
  set.n = n;
  set.executor = executor_;
  set.tables.reserve(lake_columns_.size());
  // Removed tables never enter the candidate set. With none removed this
  // is the full identity set and every stage behaves exactly as before.
  for (size_t t = 0; t < lake_columns_.size(); ++t) {
    if (t < lake_removed_.size() && lake_removed_[t] != 0) continue;
    set.tables.push_back(t);
  }

  // Stage list for this query: optional prefilters, then the (possibly
  // degenerate) shortlist, then the exact rerank. Query-side signals are
  // computed only for the stages that will consume them.
  std::vector<const cascade::CandidateStage*> stages;
  if (config_.cascade.enabled && config_.cascade.prefilter) {
    set.query_signature = cascade::SignatureOf(query);
    stages.push_back(&prefilter_stage_);
  }
  MinHashSketch query_sketch;
  if (config_.cascade.enabled && config_.cascade.prescreen) {
    query_sketch = MinHashSketch(cascade::TableValueSample(query),
                                 config_.cascade.minhash_hashes,
                                 config_.cascade.minhash_seed);
    set.query_sketch = &query_sketch;
    stages.push_back(&prescreen_stage_);
  }
  la::Vec profile;
  if (profile_index_ != nullptr && config_.shortlist > 0) {
    profile.assign(encoder_.dim(), 0.0f);
    if (!query_cols.empty()) {
      profile = la::Mean(query_cols);
      la::NormalizeInPlace(&profile);
    }
    set.query_profile = &profile;
  }
  stages.push_back(&shortlist_stage_);
  cascade::ExactRerankStage rerank(
      [this, &query_cols](size_t t) {
        return TableScore(query_cols, lake_columns_[t]);
      },
      [this, &query_cols](size_t t) {
        return TableBound(query_cols, lake_columns_[t]);
      });
  stages.push_back(&rerank);

  std::vector<cascade::StageStats> stats;
  Status status = cascade_.Run(stages, set, &stats);
  // Stage errors mean an engine wiring bug (missing signal, id out of
  // range), never a bad query — fail loud.
  DUST_CHECK(status.ok());
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    last_stats_ = std::move(stats);
  }
  return std::move(set.hits);
}

Status EmbeddingUnionSearch::SaveState(io::IndexWriter* writer) const {
  writer->WriteU64(lake_columns_.size());
  for (const std::vector<la::Vec>& cols : lake_columns_) {
    writer->WriteVecs(cols);
  }
  writer->WriteVecs(lake_profiles_);
  writer->WriteU8(profile_index_ != nullptr ? 1 : 0);
  DUST_RETURN_IF_ERROR(writer->status());
  if (profile_index_ != nullptr) {
    DUST_RETURN_IF_ERROR(io::WriteIndex(*profile_index_, writer));
  }
  // Cascade signals (snapshot format v2). A flag byte keeps disabled
  // configs round-tripping with no cascade payload at all.
  writer->WriteU8(config_.cascade.enabled ? 1 : 0);
  if (config_.cascade.enabled) {
    writer->WriteU64(lake_signatures_.size());
    for (const cascade::TableSignature& sig : lake_signatures_) {
      writer->WriteU64(sig.columns);
      writer->WriteU64(sig.numeric_columns);
    }
    writer->WriteU64(lake_sketches_.size());
    for (const MinHashSketch& sketch : lake_sketches_) {
      writer->WriteU8(sketch.empty() ? 1 : 0);
      writer->WriteU64(sketch.mins().size());
      for (uint64_t m : sketch.mins()) writer->WriteU64(m);
    }
  }
  return writer->status();
}

Status EmbeddingUnionSearch::LoadState(io::IndexReader* reader) {
  uint64_t num_tables = 0;
  DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_tables));
  // Snapshots predate mutations and carry no table names: every restored
  // table is live, and RemoveTable refuses until IndexLake runs again.
  lake_names_.clear();
  lake_removed_.assign(num_tables, 0);
  lake_columns_.assign(num_tables, {});
  for (uint64_t t = 0; t < num_tables; ++t) {
    DUST_RETURN_IF_ERROR(reader->ReadVecs(&lake_columns_[t], encoder_.dim()));
  }
  DUST_RETURN_IF_ERROR(reader->ReadVecs(&lake_profiles_, encoder_.dim()));
  if (lake_profiles_.size() != num_tables) {
    return Status::IoError("snapshot profile/table count mismatch");
  }
  uint8_t has_index = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&has_index));
  profile_index_.reset();
  if (has_index != 0) {
    Result<std::unique_ptr<index::VectorIndex>> loaded = io::ReadIndex(reader);
    DUST_RETURN_IF_ERROR(loaded.status());
    profile_index_ = std::move(loaded).value();
    profile_index_->SetExecutor(executor_);
    if (profile_index_->size() != num_tables) {
      return Status::IoError("snapshot index/table count mismatch");
    }
  }
  // The stored index must match what this engine's config would build;
  // otherwise SearchTables would silently ignore or mis-use it.
  if ((config_.shortlist > 0) != (has_index != 0)) {
    return Status::FailedPrecondition(
        "snapshot shortlist index does not match engine config");
  }
  uint8_t cascade_enabled = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&cascade_enabled));
  if ((cascade_enabled != 0) != config_.cascade.enabled) {
    return Status::FailedPrecondition(
        "snapshot cascade signals do not match engine config");
  }
  lake_signatures_.clear();
  lake_sketches_.clear();
  if (cascade_enabled != 0) {
    uint64_t num_signatures = 0;
    DUST_RETURN_IF_ERROR(
        reader->ReadCount(2 * sizeof(uint64_t), &num_signatures));
    if (num_signatures != num_tables) {
      return Status::IoError("snapshot cascade signature count mismatch");
    }
    lake_signatures_.reserve(num_signatures);
    for (uint64_t t = 0; t < num_signatures; ++t) {
      cascade::TableSignature sig;
      DUST_RETURN_IF_ERROR(reader->ReadU64(&sig.columns));
      DUST_RETURN_IF_ERROR(reader->ReadU64(&sig.numeric_columns));
      lake_signatures_.push_back(sig);
    }
    uint64_t num_sketches = 0;
    DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint8_t), &num_sketches));
    if (num_sketches != 0 && num_sketches != num_tables) {
      return Status::IoError("snapshot cascade sketch count mismatch");
    }
    lake_sketches_.reserve(num_sketches);
    for (uint64_t t = 0; t < num_sketches; ++t) {
      uint8_t sketch_empty = 0;
      DUST_RETURN_IF_ERROR(reader->ReadU8(&sketch_empty));
      uint64_t num_mins = 0;
      DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_mins));
      if (num_mins != config_.cascade.minhash_hashes) {
        return Status::FailedPrecondition(
            "snapshot prescreen sketch width does not match engine config");
      }
      std::vector<uint64_t> mins(num_mins, 0);
      for (uint64_t m = 0; m < num_mins; ++m) {
        DUST_RETURN_IF_ERROR(reader->ReadU64(&mins[m]));
      }
      lake_sketches_.push_back(
          MinHashSketch::FromState(std::move(mins), sketch_empty != 0));
    }
    if (config_.cascade.prescreen && lake_sketches_.size() != num_tables) {
      return Status::FailedPrecondition(
          "snapshot has no prescreen sketches but the engine config enables "
          "the prescreen stage");
    }
  }
  return Status::Ok();
}

}  // namespace dust::search

#include "search/embedding_search.h"

#include <algorithm>
#include <utility>

#include "align/hungarian.h"
#include "io/index_io.h"

namespace dust::search {

EmbeddingUnionSearch::EmbeddingUnionSearch(EmbeddingSearchConfig config)
    : config_(config),
      encoder_(config.encoder),
      catalog_(config.cascade),
      cascade_({"prefilter", "prescreen", "shortlist", "rerank"}),
      shortlist_stage_(&profile_index_, &lake_profiles_, config_.shortlist) {}

void EmbeddingUnionSearch::IndexLake(
    const std::vector<const table::Table*>& lake) {
  lake_columns_.clear();
  lake_profiles_.clear();
  lake_columns_.reserve(lake.size());
  lake_profiles_.reserve(lake.size());
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
  catalog_.Reset(lake);
}

void EmbeddingUnionSearch::SetExecutor(serve::Executor* executor) {
  executor_ = executor;
  if (profile_index_ != nullptr) profile_index_->SetExecutor(executor);
}

Status EmbeddingUnionSearch::RemoveTable(const std::string& name) {
  Result<size_t> removed = catalog_.Remove(name);
  DUST_RETURN_IF_ERROR(removed.status());
  // Tombstone the profile too so an untouched candidate set delegating
  // straight to the index can never shortlist the removed table.
  if (profile_index_ != nullptr) profile_index_->Remove(removed.value());
  return Status::Ok();
}

Status EmbeddingUnionSearch::AddTable(const table::Table& table) {
  DUST_RETURN_IF_ERROR(catalog_.Add(table));
  std::vector<la::Vec> cols = encoder_.EncodeTable(table);
  la::Vec profile(encoder_.dim(), 0.0f);
  if (!cols.empty()) {
    profile = la::Mean(cols);
    la::NormalizeInPlace(&profile);
  }
  if (profile_index_ != nullptr) profile_index_->Add(profile);
  lake_columns_.push_back(std::move(cols));
  lake_profiles_.push_back(std::move(profile));
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
  // The catalog's optional prefilters narrow the live tables, then the
  // (possibly degenerate) shortlist and the exact rerank run.
  std::vector<cascade::StageStats> stats;
  Status status = catalog_.Prefilter(query, cascade_, &set, &stats);
  la::Vec profile;
  if (profile_index_ != nullptr && config_.shortlist > 0) {
    profile.assign(encoder_.dim(), 0.0f);
    if (!query_cols.empty()) {
      profile = la::Mean(query_cols);
      la::NormalizeInPlace(&profile);
    }
    set.query_profile = &profile;
  }
  cascade::ExactRerankStage rerank(
      [this, &query_cols](size_t t) {
        return TableScore(query_cols, lake_columns_[t]);
      },
      [this, &query_cols](size_t t) {
        return TableBound(query_cols, lake_columns_[t]);
      });
  if (status.ok()) {
    status = cascade_.Run({&shortlist_stage_, &rerank}, set, &stats);
  }
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
  if (catalog_.num_live() != catalog_.size()) {
    return Status::FailedPrecondition(
        "snapshots carry no removed flags, so an engine with removed tables "
        "cannot be saved; re-run IndexLake over the live tables first");
  }
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
  return catalog_.SaveSignals(writer);
}

Status EmbeddingUnionSearch::LoadState(io::IndexReader* reader) {
  uint64_t num_tables = 0;
  DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_tables));
  // Snapshots carry no table names: every restored table is live, and
  // RemoveTable refuses until IndexLake runs again.
  catalog_.ResetUnnamed(num_tables);
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
  return catalog_.LoadSignals(reader);
}

}  // namespace dust::search

#include "search/embedding_search.h"

#include <algorithm>
#include <utility>

#include "align/hungarian.h"
#include "io/index_io.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace dust::search {

EmbeddingUnionSearch::EmbeddingUnionSearch(EmbeddingSearchConfig config)
    : config_(config), encoder_(config.encoder) {}

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
  set.tables = catalog_.LiveTables();
  la::Vec profile;
  if (profile_index_ != nullptr && config_.shortlist > 0) {
    profile.assign(encoder_.dim(), 0.0f);
    if (!query_cols.empty()) {
      profile = la::Mean(query_cols);
      la::NormalizeInPlace(&profile);
    }
    set.query_profile = &profile;
  }
  const cascade::VectorShortlistStage shortlist(
      profile_index_.get(), &lake_profiles_, config_.shortlist);
  const cascade::ExactRerankStage rerank(
      [this, &query_cols](size_t t) {
        return TableScore(query_cols, lake_columns_[t]);
      },
      [this, &query_cols](size_t t) {
        return TableBound(query_cols, lake_columns_[t]);
      });
  std::vector<cascade::StageStats> stats;
  const auto run_step = [&set, &stats](const char* name, const auto& step) {
    const size_t in = set.tables.size();
    obs::Span span(std::string("stage:") + name);
    Stopwatch watch;
    const Status status = step.Run(set);
    // A step fails only on an engine wiring bug (missing query profile, id
    // out of range), never on a bad query: fail loud.
    DUST_CHECK(status.ok());
    const double micros = watch.Seconds() * 1e6;
    const size_t out = set.tables.size();
    span.AddTag("in", static_cast<uint64_t>(in));
    span.AddTag("out", static_cast<uint64_t>(out));
    stats.push_back({name, in, out, micros});
  };
  run_step("shortlist", shortlist);
  run_step("rerank", rerank);
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
  // Snapshot format v2 ends with a flag byte that marked retrieval-cascade
  // signals; the cascade is gone, so it is always 0.
  writer->WriteU8(0);
  return writer->status();
}

Status EmbeddingUnionSearch::LoadState(io::IndexReader* reader) {
  // Everything is read into locals and committed only once the whole state
  // has passed every check, so a failed load leaves the engine as it was.
  uint64_t num_tables = 0;
  DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_tables));
  std::vector<std::vector<la::Vec>> columns(num_tables);
  for (std::vector<la::Vec>& cols : columns) {
    DUST_RETURN_IF_ERROR(reader->ReadVecs(&cols, encoder_.dim()));
  }
  std::vector<la::Vec> profiles;
  DUST_RETURN_IF_ERROR(reader->ReadVecs(&profiles, encoder_.dim()));
  if (profiles.size() != num_tables) {
    return Status::IoError("snapshot profile/table count mismatch");
  }
  uint8_t has_index = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&has_index));
  std::unique_ptr<index::VectorIndex> profile_index;
  if (has_index != 0) {
    Result<std::unique_ptr<index::VectorIndex>> loaded = io::ReadIndex(reader);
    DUST_RETURN_IF_ERROR(loaded.status());
    profile_index = std::move(loaded).value();
    if (profile_index->size() != num_tables) {
      return Status::IoError("snapshot index/table count mismatch");
    }
  }
  // The stored index must match what this engine's config would build;
  // otherwise SearchTables would silently ignore or mis-use it.
  if ((config_.shortlist > 0) != (has_index != 0)) {
    return Status::FailedPrecondition(
        "snapshot shortlist index does not match engine config");
  }
  uint8_t cascade_signals = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&cascade_signals));
  if (cascade_signals != 0) {
    return Status::IoError(
        "snapshot carries retrieval-cascade signals, but the retrieval "
        "cascade was removed; rebuild the snapshot with IndexLake + "
        "SaveSnapshot");
  }

  // Snapshots carry no table names: every restored table is live, and
  // RemoveTable refuses until IndexLake runs again.
  catalog_.ResetUnnamed(num_tables);
  lake_columns_ = std::move(columns);
  lake_profiles_ = std::move(profiles);
  profile_index_ = std::move(profile_index);
  if (profile_index_ != nullptr) profile_index_->SetExecutor(executor_);
  return Status::Ok();
}

}  // namespace dust::search

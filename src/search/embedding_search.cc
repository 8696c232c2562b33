#include "search/embedding_search.h"

#include <algorithm>
#include <utility>

#include "align/hungarian.h"
#include "io/index_io.h"
#include "la/distance.h"
#include "obs/trace.h"
#include "serve/executor.h"
#include "util/stopwatch.h"

namespace dust::search {

EmbeddingUnionSearch::EmbeddingUnionSearch(EmbeddingSearchConfig config)
    : config_(config), encoder_(config.encoder) {}

void EmbeddingUnionSearch::ColumnStore::AddTable(size_t count, size_t dim) {
  offsets.push_back(offsets.back() + count);
  data.resize(offsets.back() * dim, 0.0f);
  norms.resize(offsets.back(), 0.0f);
}

void EmbeddingUnionSearch::ColumnStore::Set(size_t c, const float* column,
                                            size_t dim) {
  std::copy(column, column + dim, data.begin() + c * dim);
  norms[c] = la::CosineNorm(column, dim);
}

void EmbeddingUnionSearch::ColumnStore::SetTable(
    size_t t, const std::vector<la::Vec>& columns, size_t dim) {
  DUST_CHECK(columns.size() == num_columns(t));
  for (size_t j = 0; j < columns.size(); ++j) {
    Set(offsets[t] + j, columns[j].data(), dim);
  }
}

void EmbeddingUnionSearch::ColumnStore::AppendTable(
    const std::vector<la::Vec>& columns, size_t dim) {
  AddTable(columns.size(), dim);
  SetTable(num_tables() - 1, columns, dim);
}

namespace {

/// Tables encoded per executor task in IndexLake.
constexpr size_t kEncodeChunkTables = 32;
/// Lake columns per executor task in the bound pass: enough pairs to
/// amortize a task, and a block small enough (64 KB at dim 64) to stay in
/// cache while every query column reads it.
constexpr size_t kBoundChunkColumns = 256;

/// A table's profile: its mean column embedding, normalized (all zero for
/// a table without columns).
la::Vec TableProfile(const std::vector<la::Vec>& cols, size_t dim) {
  la::Vec profile(dim, 0.0f);
  if (!cols.empty()) {
    profile = la::Mean(cols);
    la::NormalizeInPlace(&profile);
  }
  return profile;
}

}  // namespace

serve::Executor& EmbeddingUnionSearch::pool() const {
  return executor_ != nullptr ? *executor_ : serve::Executor::Default();
}

void EmbeddingUnionSearch::IndexLake(
    const std::vector<const table::Table*>& lake) {
  const size_t dim = encoder_.dim();
  // Lay out every table's slice first, so the store is sized once.
  ColumnStore store;
  for (const table::Table* t : lake) {
    store.offsets.push_back(store.offsets.back() + t->num_columns());
  }
  store.data.resize(store.offsets.back() * dim);
  store.norms.resize(store.offsets.back());
  // Profiles feed only the shortlist index, so only a shortlist computes
  // them.
  std::vector<la::Vec> profiles(config_.shortlist > 0 ? lake.size() : 0);
  // Each table's columns go straight into its own slice of the store; the
  // encoder is a pure function of the table, so chunking changes no bit.
  const size_t chunks = (lake.size() + kEncodeChunkTables - 1) /
                        kEncodeChunkTables;
  pool().ParallelFor(chunks, [&](size_t chunk) {
    const size_t end =
        std::min(lake.size(), (chunk + 1) * kEncodeChunkTables);
    for (size_t t = chunk * kEncodeChunkTables; t < end; ++t) {
      const std::vector<la::Vec> cols = encoder_.EncodeTable(*lake[t]);
      store.SetTable(t, cols, dim);
      if (!profiles.empty()) profiles[t] = TableProfile(cols, dim);
    }
  });
  lake_columns_ = std::move(store);

  if (config_.shortlist > 0) {
    profile_index_ =
        index::MakeVectorIndex(config_.index_type, encoder_.dim(),
                               la::Metric::kCosine, config_.index_options);
    profile_index_->AddAll(profiles);
  } else {
    profile_index_.reset();
  }
  catalog_.Reset(lake);
}

Status EmbeddingUnionSearch::RemoveTable(const std::string& name) {
  Result<size_t> removed = catalog_.Remove(name);
  DUST_RETURN_IF_ERROR(removed.status());
  // Tombstone the profile too, so the shortlist never returns the table.
  if (profile_index_ != nullptr) profile_index_->Remove(removed.value());
  return Status::Ok();
}

Status EmbeddingUnionSearch::AddTable(const table::Table& table) {
  DUST_RETURN_IF_ERROR(catalog_.Add(table));
  const size_t dim = encoder_.dim();
  const std::vector<la::Vec> cols = encoder_.EncodeTable(table);
  lake_columns_.AppendTable(cols, dim);
  if (profile_index_ != nullptr) profile_index_->Add(TableProfile(cols, dim));
  return Status::Ok();
}

std::vector<la::Vec> EmbeddingUnionSearch::ColumnEmbeddings(
    size_t table_index) const {
  const size_t dim = encoder_.dim();
  std::vector<la::Vec> cols;
  for (size_t c = lake_columns_.offsets[table_index];
       c < lake_columns_.offsets[table_index + 1]; ++c) {
    const float* column = lake_columns_.column(c, dim);
    cols.emplace_back(column, column + dim);
  }
  return cols;
}

double EmbeddingUnionSearch::TableScore(const ColumnStore& query,
                                        size_t t) const {
  const size_t rows = query.norms.size();
  const size_t cols = lake_columns_.num_columns(t);
  if (rows == 0 || cols == 0) return 0.0;
  const size_t dim = encoder_.dim();
  const size_t first = lake_columns_.offsets[t];
  std::vector<float> weights(rows * cols);
  la::CosineWeights(query.data.data(), query.norms.data(), rows,
                    lake_columns_.column(first, dim),
                    lake_columns_.norms.data() + first, cols, dim,
                    weights.data());
  align::MatchingResult matching = align::MaxWeightBipartiteMatching(
      std::vector<double>(weights.begin(), weights.end()), rows, cols);
  return matching.total_weight / static_cast<double>(rows);
}

std::vector<double> EmbeddingUnionSearch::TableBounds(
    const ColumnStore& query, const std::vector<size_t>& tables) const {
  std::vector<double> bounds(tables.size(), 0.0);
  const size_t rows = query.norms.size();
  if (rows == 0 || tables.empty()) return bounds;
  // Chunks of consecutive candidates, about kBoundChunkColumns lake columns
  // each.
  std::vector<size_t> chunk_begin = {0};
  size_t chunk_columns = 0;
  for (size_t i = 0; i + 1 < tables.size(); ++i) {
    chunk_columns += lake_columns_.num_columns(tables[i]);
    if (chunk_columns >= kBoundChunkColumns) {
      chunk_begin.push_back(i + 1);
      chunk_columns = 0;
    }
  }
  chunk_begin.push_back(tables.size());

  const size_t dim = encoder_.dim();
  // Every bound is a pure function of its table, so pooled evaluation is
  // deterministic: each slot is written exactly once.
  pool().ParallelFor(chunk_begin.size() - 1, [&](size_t chunk) {
    std::vector<float> weights;
    std::vector<float> column_max;
    std::vector<double> row_sum;
    for (size_t run = chunk_begin[chunk]; run < chunk_begin[chunk + 1];) {
      // A run of candidates whose columns are adjacent in the store is
      // scored as one block: query rows x run columns.
      size_t run_end = run + 1;
      while (run_end < chunk_begin[chunk + 1] &&
             tables[run_end] == tables[run_end - 1] + 1) {
        ++run_end;
      }
      // Candidate i's columns, as positions in the block.
      const size_t first = lake_columns_.offsets[tables[run]];
      const auto begin_of = [&](size_t i) {
        return lake_columns_.offsets[tables[i]] - first;
      };
      const auto end_of = [&](size_t i) {
        return lake_columns_.offsets[tables[i] + 1] - first;
      };
      const size_t run_columns =
          lake_columns_.offsets[tables[run_end - 1] + 1] - first;
      weights.resize(rows * run_columns);
      la::CosineWeights(query.data.data(), query.norms.data(), rows,
                        lake_columns_.column(first, dim),
                        lake_columns_.norms.data() + first, run_columns, dim,
                        weights.data());
      // Every table's row and column maxima, one query row at a time. The
      // weights are floats >= +0, never NaN, so a maximum does not depend
      // on the order it is taken in, and float -> double is exact and
      // monotone: the maxima taken in float widen to the doubles a
      // double-precision pass finds. The sums add them in the same order.
      column_max.assign(run_columns, 0.0f);
      row_sum.assign(run_end - run, 0.0);
      for (size_t q = 0; q < rows; ++q) {
        const float* w = weights.data() + q * run_columns;
        for (size_t j = 0; j < run_columns; ++j) {
          column_max[j] = std::max(column_max[j], w[j]);
        }
        for (size_t i = run; i < run_end; ++i) {
          float row_max = 0.0f;
          for (size_t j = begin_of(i); j < end_of(i); ++j) {
            row_max = std::max(row_max, w[j]);
          }
          row_sum[i - run] += static_cast<double>(row_max);
        }
      }
      for (size_t i = run; i < run_end; ++i) {
        double column_sum = 0.0;
        for (size_t j = begin_of(i); j < end_of(i); ++j) {
          column_sum += static_cast<double>(column_max[j]);
        }
        bounds[i] = std::min(row_sum[i - run], column_sum) /
                    static_cast<double>(rows);
      }
      run = run_end;
    }
  });
  return bounds;
}

std::vector<TableHit> EmbeddingUnionSearch::SearchTables(
    const table::Table& query, size_t n) const {
  const size_t dim = encoder_.dim();
  const std::vector<la::Vec> query_cols = encoder_.EncodeTable(query);
  ColumnStore packed;  // the query's columns, as a store of one table
  packed.AppendTable(query_cols, dim);

  std::vector<cascade::StageStats> stats;
  std::vector<size_t> tables = catalog_.LiveTables();
  {
    // Step 1: the shortlist, the tables whose profiles lie nearest the
    // query's. The index holds every table ever indexed, with the removed
    // ones tombstoned, so it never returns one.
    obs::Span span("stage:shortlist");
    Stopwatch watch;
    const size_t in = tables.size();
    if (profile_index_ != nullptr) {
      const std::vector<index::SearchHit> hits = profile_index_->Search(
          TableProfile(query_cols, dim), config_.shortlist);
      tables.clear();
      for (const index::SearchHit& hit : hits) tables.push_back(hit.id);
    }
    stats.push_back({"shortlist", in, tables.size(), watch.Seconds() * 1e6});
    span.AddTag("in", static_cast<uint64_t>(in));
    span.AddTag("out", static_cast<uint64_t>(tables.size()));
  }
  std::vector<TableHit> hits;
  {
    // Step 2: the exact rerank, bound and verify.
    obs::Span span("stage:rerank");
    Stopwatch watch;
    std::vector<double> bounds;
    if (n > 0) bounds = TableBounds(packed, tables);
    hits = BoundAndVerifyTopN(
        tables, bounds, n, [&](size_t t) { return TableScore(packed, t); });
    stats.push_back({"rerank", tables.size(), hits.size(),
                     watch.Seconds() * 1e6});
    span.AddTag("in", static_cast<uint64_t>(tables.size()));
    span.AddTag("out", static_cast<uint64_t>(hits.size()));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    last_stats_ = std::move(stats);
  }
  return hits;
}

Status EmbeddingUnionSearch::SaveState(io::IndexWriter* writer) const {
  if (catalog_.num_live() != catalog_.size()) {
    return Status::FailedPrecondition(
        "snapshots carry no removed flags, so an engine with removed tables "
        "cannot be saved; re-run IndexLake over the live tables first");
  }
  const size_t dim = encoder_.dim();
  writer->WriteU64(lake_columns_.num_tables());
  for (size_t t = 0; t < lake_columns_.num_tables(); ++t) {
    writer->WriteVecs(lake_columns_.column(lake_columns_.offsets[t], dim),
                      lake_columns_.num_columns(t), dim);
  }
  // Each profile comes from the same floats, averaged in the same order, as
  // the one IndexLake computes, so its bytes are the same.
  writer->WriteU64(lake_columns_.num_tables());
  for (size_t t = 0; t < lake_columns_.num_tables(); ++t) {
    writer->WriteVec(TableProfile(ColumnEmbeddings(t), dim));
  }
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
  const size_t dim = encoder_.dim();
  uint64_t num_tables = 0;
  DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_tables));
  ColumnStore columns;
  std::vector<float> rows;
  for (uint64_t t = 0; t < num_tables; ++t) {
    DUST_RETURN_IF_ERROR(reader->ReadRows(&rows, dim));
    const size_t first = columns.offsets.back();
    const size_t count = rows.size() / dim;
    columns.AddTable(count, dim);
    for (size_t j = 0; j < count; ++j) {
      columns.Set(first + j, rows.data() + j * dim, dim);
    }
  }
  // The profiles are checked (count, dim, finite values) and dropped: only
  // the shortlist reads profiles, from the stored index.
  std::vector<la::Vec> profiles;
  DUST_RETURN_IF_ERROR(reader->ReadVecs(&profiles, dim));
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
  profile_index_ = std::move(profile_index);
  return Status::Ok();
}

}  // namespace dust::search

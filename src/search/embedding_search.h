// Starmie-style union search (Fan et al., PVLDB'23): contextualized column
// embeddings per table; a candidate's unionability score is the max-weight
// bipartite matching between its columns and the query's (cosine weights).
//
// Every query runs two steps over the live lake tables: the optional
// vector shortlist over table-level profiles (mean column embedding,
// faiss-style), then the exact bipartite rerank, which runs the matching
// only for tables whose cheap upper bound can still reach the top n
// (BoundAndVerifyTopN). Every lake column lives in one row-major store
// with its norm cached, so the bound pass scores blocks of lake columns
// against all query columns at scan speed.
#ifndef DUST_SEARCH_EMBEDDING_SEARCH_H_
#define DUST_SEARCH_EMBEDDING_SEARCH_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "embed/starmie_encoder.h"
#include "index/vector_index.h"
#include "search/lake_catalog.h"
#include "search/union_search.h"
#include "util/status.h"

namespace dust::search {

namespace cascade {

/// Empty: the type prefilter and MinHash prescreen it configured are gone.
/// Kept only because perfbench's replay of the pipeline constructor copies
/// PipelineConfig::cascade into EmbeddingSearchConfig::cascade; it goes
/// with that replay.
struct CascadeConfig {};

/// What one step of SearchTables did to one query's candidates. Kept only
/// for perfbench's replay, which reads the rerank's `in` as the tables
/// scored; it goes with that replay.
struct StageStats {
  std::string stage;
  size_t in = 0;
  size_t out = 0;
  double micros = 0.0;
};

}  // namespace cascade

/// The rerank's bound-and-verify selection. `bounds[i]` bounds
/// `score(tables[i])` from above (up to summation-order rounding, which
/// the 1e-9 margin absorbs), and `score` is a pure per-table function. The
/// exact `score` runs in descending bound order (ties toward lower ids)
/// and stops once no remaining bound can reach the n-th best exact score;
/// a bound tied with the cut is still verified. Hits are ranked descending
/// by (score, id), truncated to `n`, and equal a full exact sort of every
/// table, bit for bit. With `n == 0` nothing is scored and the bounds are
/// not read; otherwise they must match the tables one for one.
template <typename Score>
std::vector<TableHit> BoundAndVerifyTopN(const std::vector<size_t>& tables,
                                         const std::vector<double>& bounds,
                                         size_t n, const Score& score) {
  std::vector<TableHit> hits;
  if (n == 0) return hits;
  DUST_CHECK(bounds.size() == tables.size());
  // Table positions as a heap popping the highest bound first, ties toward
  // the lower id.
  std::vector<size_t> pending(tables.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  const auto pops_later = [&](size_t a, size_t b) {
    if (bounds[a] != bounds[b]) return bounds[a] < bounds[b];
    return tables[a] > tables[b];
  };
  std::make_heap(pending.begin(), pending.end(), pops_later);

  // The n best exact hits so far as a heap whose front is the worst of
  // them; ranks by score descending, then id ascending.
  const auto ranks_before = [](const TableHit& a, const TableHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_index < b.table_index;
  };
  hits.reserve(std::min(n, tables.size()));
  while (!pending.empty()) {
    std::pop_heap(pending.begin(), pending.end(), pops_later);
    const size_t i = pending.back();
    pending.pop_back();
    // The bound and the exact matching sum the same weights in different
    // orders, so a bound can read a few ulps under its own score; the
    // margin keeps such a table verified. A bound tied with the n-th score
    // is verified too, so lower ids still win ties at the cut.
    if (hits.size() == n && bounds[i] < hits.front().score - 1e-9) break;
    const TableHit hit{tables[i], score(tables[i])};
    if (hits.size() < n) {
      hits.push_back(hit);
      std::push_heap(hits.begin(), hits.end(), ranks_before);
    } else if (ranks_before(hit, hits.front())) {
      std::pop_heap(hits.begin(), hits.end(), ranks_before);
      hits.back() = hit;
      std::push_heap(hits.begin(), hits.end(), ranks_before);
    }
  }
  std::sort_heap(hits.begin(), hits.end(), ranks_before);
  return hits;
}

struct EmbeddingSearchConfig {
  embed::StarmieConfig encoder;
  /// Candidates short-listed by the table-profile index before exact
  /// bipartite scoring (0 = score every table exactly).
  size_t shortlist = 0;
  /// Index type for the shortlist: "flat" or "hnsw".
  std::string index_type = "flat";
  /// Tuning knobs forwarded to the shortlist index (HNSW M/ef_search; 0
  /// keeps defaults).
  index::IndexOptions index_options;
  /// Empty; kept only for perfbench's replay (see cascade::CascadeConfig).
  cascade::CascadeConfig cascade;
};

class EmbeddingUnionSearch : public UnionSearch {
 public:
  explicit EmbeddingUnionSearch(EmbeddingSearchConfig config = {});

  void IndexLake(const std::vector<const table::Table*>& lake) override;
  std::vector<TableHit> SearchTables(const table::Table& query,
                                     size_t n) const override;
  std::string name() const override { return "Starmie"; }

  /// Persists the per-table column embeddings, each table's profile
  /// (recomputed from its columns) and, when a shortlist is configured, the
  /// built profile index — everything IndexLake computes from the raw
  /// tables. Snapshots carry no removed flags, so an engine with a removed
  /// table is FailedPrecondition (re-run IndexLake over the live tables
  /// first).
  Status SaveState(io::IndexWriter* writer) const override;
  /// Restores SaveState output. The engine must be constructed with the same
  /// config as at save time (the pipeline's snapshot hash enforces this); a
  /// shortlist mismatch between config and stored state is rejected, and so
  /// is a snapshot that carries retrieval-cascade signals. The stored
  /// profiles are validated and dropped: only the profile index reads them.
  /// A failed call changes nothing.
  Status LoadState(io::IndexReader* reader) override;

  /// Installs a shared executor on IndexLake's table encode and on the
  /// rerank's bound pass. Null (the default) means
  /// serve::Executor::Default() for both.
  void SetExecutor(serve::Executor* executor) override {
    executor_ = executor;
  }

  /// Removes the live table named `name`: its slot is kept (table_index
  /// stability) but it leaves the candidate set and, when a shortlist is
  /// configured, its profile is tombstoned in the index, so later searches
  /// answer as IndexLake over the live tables would. NotFound when no
  /// live table carries the name. Requires table names, which IndexLake
  /// records but snapshots do not carry — FailedPrecondition after
  /// LoadState (re-run IndexLake to mutate). Mutations are not
  /// synchronized against in-flight SearchTables calls; quiesce first.
  Status RemoveTable(const std::string& name);

  /// Encodes and appends `table` as a new lake table; its profile joins
  /// the shortlist index. InvalidArgument when a live table already
  /// carries the name.
  Status AddTable(const table::Table& table);

  /// Every table ever indexed, with its removed flag.
  const LakeCatalog& catalog() const { return catalog_; }

  /// The `shortlist` and `rerank` steps' stats of the most recent
  /// SearchTables call. Kept only for perfbench's replay, which reads the
  /// tables scored from here; it goes with that replay.
  std::vector<cascade::StageStats> last_stage_stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return last_stats_;
  }

  /// A copy of an indexed lake table's column embeddings (for Starmie
  /// (B)/(H)).
  std::vector<la::Vec> ColumnEmbeddings(size_t table_index) const;
  const embed::StarmieEncoder& encoder() const { return encoder_; }

 private:
  /// Column embeddings of a list of tables in one row-major block, table
  /// after table: table t owns columns [offsets[t], offsets[t + 1]), and
  /// norms[c] is la::CosineNorm of column c. The lake is one store; a
  /// query's columns are a store of one table.
  struct ColumnStore {
    std::vector<float> data;  // columns x dim
    std::vector<size_t> offsets{0};
    std::vector<float> norms;

    size_t num_tables() const { return offsets.size() - 1; }
    size_t num_columns(size_t t) const { return offsets[t + 1] - offsets[t]; }
    const float* column(size_t c, size_t dim) const {
      return data.data() + c * dim;
    }
    /// Appends a table of `count` columns, zero until Set.
    void AddTable(size_t count, size_t dim);
    /// Copies `dim` floats into column `c` and caches their norm.
    void Set(size_t c, const float* column, size_t dim);
    /// Set of each of table t's columns; `columns` must hold exactly as
    /// many as the table was laid out with.
    void SetTable(size_t t, const std::vector<la::Vec>& columns, size_t dim);
    /// AddTable, then SetTable.
    void AppendTable(const std::vector<la::Vec>& columns, size_t dim);
  };

  /// Starmie's table score of lake table `t`: max-weight bipartite matching
  /// over the column-pair weights max(0, cosine), divided by the query's
  /// column count.
  double TableScore(const ColumnStore& query, size_t t) const;
  /// An upper bound on TableScore for every table in `tables`, in its
  /// order. A matching uses each row and each column at most once, so its
  /// weight is at most min(sum_i max_j w_ij, sum_j max_i w_ij). Runs in
  /// chunks of consecutive candidates on the executor.
  std::vector<double> TableBounds(const ColumnStore& query,
                                  const std::vector<size_t>& tables) const;
  /// The installed executor, or serve::Executor::Default().
  serve::Executor& pool() const;

  EmbeddingSearchConfig config_;
  embed::StarmieEncoder encoder_;
  ColumnStore lake_columns_;
  /// Table profiles, built only when a shortlist is configured.
  std::unique_ptr<index::VectorIndex> profile_index_;
  serve::Executor* executor_ = nullptr;
  LakeCatalog catalog_;
  mutable std::mutex stats_mutex_;
  mutable std::vector<cascade::StageStats> last_stats_;
};

}  // namespace dust::search

#endif  // DUST_SEARCH_EMBEDDING_SEARCH_H_

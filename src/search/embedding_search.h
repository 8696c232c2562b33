// Starmie-style union search (Fan et al., PVLDB'23): contextualized column
// embeddings per table; a candidate's unionability score is the max-weight
// bipartite matching between its columns and the query's (cosine weights).
//
// Every query runs the two steps of src/search/cascade/stages.h over the
// live lake tables: the optional vector shortlist over table-level
// profiles (mean column embedding, faiss-style), then the exact bipartite
// rerank, which runs the matching only for tables whose cheap upper bound
// can still reach the top n. Every lake column lives in one row-major
// store with its norm cached, so the bound pass scores blocks of lake
// columns against all query columns at scan speed.
#ifndef DUST_SEARCH_EMBEDDING_SEARCH_H_
#define DUST_SEARCH_EMBEDDING_SEARCH_H_

#include <memory>
#include <mutex>

#include "embed/starmie_encoder.h"
#include "index/vector_index.h"
#include "search/cascade/stages.h"
#include "search/lake_catalog.h"
#include "search/union_search.h"

namespace dust::search {

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

  /// Persists the per-table column embeddings, the table profiles and
  /// (when a shortlist is configured) the built profile index — everything
  /// IndexLake computes from the raw tables. Snapshots carry no removed
  /// flags, so an engine with a removed table is FailedPrecondition (re-run
  /// IndexLake over the live tables first).
  Status SaveState(io::IndexWriter* writer) const override;
  /// Restores SaveState output. The engine must be constructed with the same
  /// config as at save time (the pipeline's snapshot hash enforces this); a
  /// shortlist mismatch between config and stored state is rejected, and so
  /// is a snapshot that carries retrieval-cascade signals. A failed call
  /// changes nothing.
  Status LoadState(io::IndexReader* reader) override;

  /// Installs a shared executor on the shortlist profile index (kept across
  /// IndexLake/LoadState rebuilds), on IndexLake's table encode and on the
  /// rerank's bound pass. Null (the default) means
  /// serve::Executor::Default() for all three.
  void SetExecutor(serve::Executor* executor) override;

  /// Removes the live table named `name`: its slot is kept (table_index
  /// stability) but it leaves the candidate set and, when a shortlist is
  /// configured, its profile is tombstoned in the index. NotFound when no
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
  /// SearchTables call (benchmarks read the tables scored from here).
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
  std::vector<la::Vec> lake_profiles_;  // mean column embedding per table
  std::unique_ptr<index::VectorIndex> profile_index_;
  serve::Executor* executor_ = nullptr;  // re-applied on index rebuilds
  LakeCatalog catalog_;
  mutable std::mutex stats_mutex_;
  mutable std::vector<cascade::StageStats> last_stats_;
};

}  // namespace dust::search

#endif  // DUST_SEARCH_EMBEDDING_SEARCH_H_

// Holistic column alignment (Sec. 3.3, Appendix A.1.1).
//
// Given a query table and a set of unionable data lake tables:
//  1. embed every column (query + lake) with a ColumnEmbedder;
//  2. run constrained agglomerative clustering over the column embeddings
//     (cannot-link columns of the same table);
//  3. choose the number of clusters maximizing the Silhouette coefficient;
//  4. discard clusters containing no query column;
//  5. emit, per lake table, a mapping from query columns to lake columns.
//
// A bipartite variant (Starmie (B), Sec. 6.2.3) aligns each lake table to
// the query independently with max-weight bipartite matching.
#ifndef DUST_ALIGN_HOLISTIC_ALIGNER_H_
#define DUST_ALIGN_HOLISTIC_ALIGNER_H_

#include <string>
#include <vector>

#include "cluster/constrained.h"
#include "embed/column_embedder.h"
#include "table/table.h"
#include "table/union.h"

namespace dust::align {

/// Identifies a column: table_index 0 is the query table; lake table i is
/// table_index i+1.
struct ColumnId {
  size_t table_index = 0;
  size_t column_index = 0;

  bool operator==(const ColumnId& other) const {
    return table_index == other.table_index &&
           column_index == other.column_index;
  }
  bool operator<(const ColumnId& other) const {
    if (table_index != other.table_index) return table_index < other.table_index;
    return column_index < other.column_index;
  }
};

/// One retained cluster: exactly one query column plus the lake columns
/// aligned to it (possibly none).
struct AlignmentCluster {
  size_t query_column = 0;
  std::vector<ColumnId> lake_members;  // table_index >= 1
};

struct AlignmentResult {
  std::vector<AlignmentCluster> clusters;
  /// Per lake table: target_headers.size() entries, each the lake column
  /// index aligned to that query column or -1 (outer-union null pad).
  std::vector<table::ColumnMapping> lake_mappings;
  /// The query table's headers, in query column order.
  std::vector<std::string> target_headers;
  size_t chosen_num_clusters = 0;
  double silhouette = 0.0;
};

struct AlignerConfig {
  cluster::Linkage linkage = cluster::Linkage::kAverage;
  /// Sec. 6.2.1 reports results with Euclidean distances between column
  /// embeddings.
  la::Metric metric = la::Metric::kEuclidean;
};

/// Holistic alignment via constrained clustering + Silhouette selection.
class HolisticAligner {
 public:
  explicit HolisticAligner(AlignerConfig config = {}) : config_(config) {}

  /// `column_embeddings[t][j]`: embedding of table t's column j, where
  /// table 0 is the query and tables 1..m are the lake tables.
  AlignmentResult Align(
      const table::Table& query,
      const std::vector<const table::Table*>& lake_tables,
      const std::vector<std::vector<la::Vec>>& column_embeddings) const;

 private:
  AlignerConfig config_;
};

/// Starmie (B): independent per-table max-weight bipartite matching between
/// query and lake columns using cosine similarity of the embeddings. Only
/// pairs with similarity >= `min_similarity` are kept.
AlignmentResult BipartiteAlign(
    const table::Table& query,
    const std::vector<const table::Table*>& lake_tables,
    const std::vector<std::vector<la::Vec>>& column_embeddings,
    float min_similarity = 0.0f);

}  // namespace dust::align

#endif  // DUST_ALIGN_HOLISTIC_ALIGNER_H_

#include "align/holistic_aligner.h"

#include <algorithm>

#include "align/hungarian.h"
#include "cluster/silhouette.h"
#include "la/distance.h"
#include "util/status.h"

namespace dust::align {

namespace {

// Builds the per-lake-table mappings and retained clusters from a flat
// clustering over the concatenated (query + lake) column list.
AlignmentResult BuildResult(const table::Table& query,
                            const std::vector<const table::Table*>& lake_tables,
                            const std::vector<ColumnId>& ids,
                            const std::vector<size_t>& labels,
                            size_t num_clusters) {
  AlignmentResult result;
  result.target_headers = query.ColumnNames();
  result.chosen_num_clusters = num_clusters;

  // For each cluster, find its query column (at most one thanks to the
  // cannot-link constraint) and its lake members.
  std::vector<int> cluster_query(num_clusters, -1);
  std::vector<std::vector<ColumnId>> cluster_lake(num_clusters);
  for (size_t i = 0; i < ids.size(); ++i) {
    size_t c = labels[i];
    if (ids[i].table_index == 0) {
      cluster_query[c] = static_cast<int>(ids[i].column_index);
    } else {
      cluster_lake[c].push_back(ids[i]);
    }
  }

  result.lake_mappings.assign(
      lake_tables.size(), table::ColumnMapping(query.num_columns(), -1));

  for (size_t c = 0; c < num_clusters; ++c) {
    if (cluster_query[c] < 0) continue;  // discard: no query column (Sec. 3.3)
    AlignmentCluster cluster;
    cluster.query_column = static_cast<size_t>(cluster_query[c]);
    cluster.lake_members = cluster_lake[c];
    std::sort(cluster.lake_members.begin(), cluster.lake_members.end());
    for (const ColumnId& id : cluster.lake_members) {
      result.lake_mappings[id.table_index - 1][cluster.query_column] =
          static_cast<int>(id.column_index);
    }
    result.clusters.push_back(std::move(cluster));
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const AlignmentCluster& a, const AlignmentCluster& b) {
              return a.query_column < b.query_column;
            });
  return result;
}

}  // namespace

AlignmentResult HolisticAligner::Align(
    const table::Table& query,
    const std::vector<const table::Table*>& lake_tables,
    const std::vector<std::vector<la::Vec>>& column_embeddings) const {
  DUST_CHECK(column_embeddings.size() == lake_tables.size() + 1);

  // Flatten columns: ids[i] identifies the column behind embedding i;
  // group_of[i] forbids clustering columns of the same table together.
  std::vector<ColumnId> ids;
  std::vector<la::Vec> points;
  std::vector<size_t> group_of;
  for (size_t t = 0; t < column_embeddings.size(); ++t) {
    for (size_t j = 0; j < column_embeddings[t].size(); ++j) {
      ids.push_back({t, j});
      points.push_back(column_embeddings[t][j]);
      group_of.push_back(t);
    }
  }
  const size_t n = points.size();
  if (n == 0) {
    return BuildResult(query, lake_tables, ids, {}, 0);
  }

  la::DistanceMatrix distances(points, config_.metric);
  cluster::ConstrainedDendrogram dendrogram =
      cluster::ConstrainedAgglomerative(distances, group_of, config_.linkage);

  // Pick the level (number of clusters) with the best Silhouette. Levels
  // with k == n (all singletons) or k == 1 carry no information.
  double best_score = -2.0;
  const cluster::FlatClustering* best_level = nullptr;
  for (const cluster::FlatClustering& level : dendrogram.levels) {
    if (level.num_clusters >= n || level.num_clusters < 2) continue;
    double score = cluster::SilhouetteScore(distances, level.labels);
    if (score > best_score) {
      best_score = score;
      best_level = &level;
    }
  }
  if (best_level == nullptr) {
    // Degenerate input (<= 2 columns): fall back to the last level.
    best_level = &dendrogram.levels.back();
    best_score = 0.0;
  }

  AlignmentResult result = BuildResult(query, lake_tables, ids,
                                       best_level->labels,
                                       best_level->num_clusters);
  result.silhouette = best_score;
  return result;
}

AlignmentResult BipartiteAlign(
    const table::Table& query,
    const std::vector<const table::Table*>& lake_tables,
    const std::vector<std::vector<la::Vec>>& column_embeddings,
    float min_similarity) {
  DUST_CHECK(column_embeddings.size() == lake_tables.size() + 1);
  AlignmentResult result;
  result.target_headers = query.ColumnNames();
  const std::vector<la::Vec>& query_cols = column_embeddings[0];

  std::vector<AlignmentCluster> clusters(query.num_columns());
  for (size_t qc = 0; qc < query.num_columns(); ++qc) {
    clusters[qc].query_column = qc;
  }

  result.lake_mappings.assign(
      lake_tables.size(), table::ColumnMapping(query.num_columns(), -1));

  for (size_t t = 0; t < lake_tables.size(); ++t) {
    const std::vector<la::Vec>& lake_cols = column_embeddings[t + 1];
    if (lake_cols.empty() || query_cols.empty()) continue;
    std::vector<double> weights(query_cols.size() * lake_cols.size(), 0.0);
    for (size_t i = 0; i < query_cols.size(); ++i) {
      for (size_t j = 0; j < lake_cols.size(); ++j) {
        float sim = la::CosineSimilarity(query_cols[i], lake_cols[j]);
        weights[i * lake_cols.size() + j] =
            (sim >= min_similarity) ? static_cast<double>(sim) : -1.0;
      }
    }
    MatchingResult matching =
        MaxWeightBipartiteMatching(weights, query_cols.size(), lake_cols.size());
    for (size_t qc = 0; qc < query_cols.size(); ++qc) {
      int lc = matching.match_of_row[qc];
      if (lc < 0) continue;
      result.lake_mappings[t][qc] = lc;
      clusters[qc].lake_members.push_back({t + 1, static_cast<size_t>(lc)});
    }
  }

  result.clusters = std::move(clusters);
  result.chosen_num_clusters = query.num_columns();
  return result;
}

}  // namespace dust::align

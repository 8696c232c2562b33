// Agglomerative hierarchical clustering via the nearest-neighbor-chain
// algorithm: O(n^2) time on top of the pairwise distance matrix, which is
// what lets DUST's diversification cluster thousands of tuples (Sec. 5.2)
// while IR baselines stall.
#ifndef DUST_CLUSTER_AGGLOMERATIVE_H_
#define DUST_CLUSTER_AGGLOMERATIVE_H_

#include <cstddef>
#include <vector>

#include "cluster/linkage.h"
#include "la/distance.h"

namespace dust::cluster {

/// One dendrogram merge: clusters `a` and `b` (ids < n are leaves; id n+i is
/// the cluster created by merge i) joined at `distance`.
struct Merge {
  size_t a;
  size_t b;
  float distance;
  size_t size;  // leaves in the merged cluster
};

/// Full dendrogram over n leaves (n-1 merges, sorted by merge distance).
struct Dendrogram {
  size_t num_leaves = 0;
  std::vector<Merge> merges;
};

/// Builds the dendrogram of the points behind `distances` under `linkage`.
/// The matrix is consumed: clustering reworks its n^2 buffer in place as
/// clusters merge, so std::move it in. A caller that still needs the
/// matrix afterwards passes a copy (an lvalue argument is copied).
Dendrogram AgglomerativeCluster(la::DistanceMatrix distances, Linkage linkage);

/// Cuts the dendrogram into exactly `k` clusters (1 <= k <= n) by applying
/// the first n-k merges in distance order. Returns cluster labels in
/// [0, k), relabeled to be dense and ordered by first occurrence.
std::vector<size_t> CutDendrogram(const Dendrogram& dendrogram, size_t k);

/// Groups point indices by label: result[c] lists the members of cluster c.
std::vector<std::vector<size_t>> GroupByLabel(const std::vector<size_t>& labels);

}  // namespace dust::cluster

#endif  // DUST_CLUSTER_AGGLOMERATIVE_H_

// Medoid selection: the central-most member of a cluster (Sec. 5.2 selects
// each cluster's medoid as its candidate diverse tuple, which is more robust
// to outliers than e.g. the point nearest the centroid).
#ifndef DUST_CLUSTER_MEDOID_H_
#define DUST_CLUSTER_MEDOID_H_

#include <cstddef>
#include <vector>

#include "la/distance.h"

namespace dust::cluster {

/// Index (into `members`' values) of the member minimizing the sum of
/// distances to the other members. Ties break to the lowest index.
size_t MedoidOf(const std::vector<size_t>& members,
                const la::DistanceMatrix& distances);

/// Medoids of every cluster in a labeling: result[c] is the point index of
/// cluster c's medoid. Empty clusters are skipped (not represented). Each
/// cluster gets its own small DistanceMatrix, whose entries are bit for bit
/// those of the full matrix over `points`, so the result equals MedoidOf
/// over the full matrix without keeping that matrix alive.
std::vector<size_t> ClusterMedoids(const std::vector<la::Vec>& points,
                                   const std::vector<size_t>& labels,
                                   la::Metric metric);

}  // namespace dust::cluster

#endif  // DUST_CLUSTER_MEDOID_H_

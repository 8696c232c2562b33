#include "diversify/clt.h"

#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "util/status.h"

namespace dust::diversify {

std::vector<size_t> CltDiversifier::SelectDiverse(const DiversifyInput& input,
                                                  size_t k) {
  DUST_CHECK(input.lake != nullptr);
  const std::vector<la::Vec>& lake = *input.lake;
  if (lake.empty() || k == 0) return {};
  k = std::min(k, lake.size());

  // Clustering consumes the one n x n matrix; medoids come from small
  // per-cluster matrices with bit-identical entries.
  cluster::Dendrogram dendrogram = cluster::AgglomerativeCluster(
      la::DistanceMatrix(lake, input.metric), config_.linkage);
  std::vector<size_t> labels = cluster::CutDendrogram(dendrogram, k);
  return cluster::ClusterMedoids(lake, labels, input.metric);
}

}  // namespace dust::diversify

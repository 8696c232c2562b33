#include "cluster/medoid.h"

#include <limits>
#include <numeric>

#include "cluster/agglomerative.h"
#include "util/status.h"

namespace dust::cluster {

size_t MedoidOf(const std::vector<size_t>& members,
                const la::DistanceMatrix& distances) {
  DUST_CHECK(!members.empty());
  double best = std::numeric_limits<double>::infinity();
  size_t arg = members[0];
  for (size_t i : members) {
    double sum = 0.0;
    for (size_t j : members) sum += distances.at(i, j);
    if (sum < best) {
      best = sum;
      arg = i;
    }
  }
  return arg;
}

std::vector<size_t> ClusterMedoids(const std::vector<la::Vec>& points,
                                   const std::vector<size_t>& labels,
                                   la::Metric metric) {
  std::vector<size_t> medoids;
  std::vector<la::Vec> cluster_points;
  std::vector<size_t> local;
  for (const auto& members : GroupByLabel(labels)) {
    if (members.empty()) continue;
    cluster_points.clear();
    for (size_t i : members) cluster_points.push_back(points[i]);
    local.resize(members.size());
    std::iota(local.begin(), local.end(), 0);
    medoids.push_back(members[MedoidOf(
        local, la::DistanceMatrix(cluster_points, metric))]);
  }
  return medoids;
}

}  // namespace dust::cluster

// Cross-implementation consistency checks: independent implementations of
// the same mathematical object must agree.
//  - NN-chain agglomerative vs. constrained agglomerative with no
//    constraints (same linkage, same partitions at every level);
//  - greedy algorithms vs. brute force on tiny instances (GMC's objective,
//    Hungarian matching);
//  - MinHash vs. exact Jaccard convergence in the number of hashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "align/hungarian.h"
#include "cluster/agglomerative.h"
#include "cluster/constrained.h"
#include "diversify/metrics.h"
#include "search/minhash.h"
#include "util/rng.h"

namespace dust {
namespace {

using la::Metric;
using la::Vec;

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> out;
  for (size_t i = 0; i < n; ++i) {
    Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    out.push_back(v);
  }
  return out;
}

// Canonical form of a partition: sorted list of sorted member groups.
std::vector<std::vector<size_t>> Canonical(const std::vector<size_t>& labels) {
  size_t k = 0;
  for (size_t l : labels) k = std::max(k, l + 1);
  std::vector<std::vector<size_t>> groups(k);
  for (size_t i = 0; i < labels.size(); ++i) groups[labels[i]].push_back(i);
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

class LinkageCrossCheck : public ::testing::TestWithParam<cluster::Linkage> {};

TEST_P(LinkageCrossCheck, NnChainMatchesNaiveUnconstrained) {
  cluster::Linkage linkage = GetParam();
  // Several random instances; distinct groups disable constraints so the
  // naive constrained implementation is plain agglomerative clustering.
  for (uint64_t seed : {11u, 22u, 33u}) {
    std::vector<Vec> points = RandomPoints(14, 3, seed);
    la::DistanceMatrix distances(points, Metric::kEuclidean);
    std::vector<size_t> groups(points.size());
    for (size_t i = 0; i < groups.size(); ++i) groups[i] = i;

    cluster::Dendrogram fast =
        cluster::AgglomerativeCluster(distances, linkage);
    cluster::ConstrainedDendrogram naive =
        cluster::ConstrainedAgglomerative(distances, groups, linkage);

    // Compare partitions at every k. naive.levels[j] has n-j clusters.
    for (size_t k = 1; k <= points.size(); ++k) {
      std::vector<size_t> fast_labels = cluster::CutDendrogram(fast, k);
      const cluster::FlatClustering& naive_level =
          naive.levels[points.size() - k];
      ASSERT_EQ(naive_level.num_clusters, k);
      EXPECT_EQ(Canonical(fast_labels), Canonical(naive_level.labels))
          << "linkage " << cluster::LinkageName(linkage) << " seed " << seed
          << " k " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageCrossCheck,
                         ::testing::Values(cluster::Linkage::kSingle,
                                           cluster::Linkage::kComplete,
                                           cluster::Linkage::kAverage));

TEST(HungarianCrossCheck, MatchesBruteForceOnSmallMatrices) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4;
    std::vector<double> weights(n * n);
    for (double& w : weights) w = rng.NextDouble();
    align::MatchingResult result =
        align::MaxWeightBipartiteMatching(weights, n, n);

    // Brute force over all 4! permutations.
    std::vector<size_t> perm = {0, 1, 2, 3};
    double best = -1.0;
    do {
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) total += weights[i * n + perm[i]];
      best = std::max(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));

    EXPECT_NEAR(result.total_weight, best, 1e-9) << "trial " << trial;
  }
}

TEST(MinHashCrossCheck, EstimateConvergesWithMoreHashes) {
  std::vector<std::string> a, b;
  for (int i = 0; i < 200; ++i) a.push_back("x" + std::to_string(i));
  for (int i = 100; i < 300; ++i) b.push_back("x" + std::to_string(i));
  double exact = search::ExactJaccard(a, b);
  double err_small = std::fabs(
      search::MinHashSketch(a, 32).EstimateJaccard(
          search::MinHashSketch(b, 32)) - exact);
  double err_large = std::fabs(
      search::MinHashSketch(a, 512).EstimateJaccard(
          search::MinHashSketch(b, 512)) - exact);
  EXPECT_LT(err_large, 0.08);
  EXPECT_LE(err_large, err_small + 0.05);  // no significant degradation
}

TEST(MetricsCrossCheck, ScoreDiversityMatchesSeparateFunctions) {
  std::vector<Vec> query = RandomPoints(4, 5, 9);
  std::vector<Vec> selected = RandomPoints(6, 5, 10);
  diversify::DiversityScores scores =
      diversify::ScoreDiversity(query, selected, Metric::kCosine);
  EXPECT_DOUBLE_EQ(scores.average,
                   diversify::AverageDiversity(query, selected, Metric::kCosine));
  EXPECT_DOUBLE_EQ(scores.min,
                   diversify::MinDiversity(query, selected, Metric::kCosine));
}

}  // namespace
}  // namespace dust

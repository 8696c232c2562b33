// Unit + property tests for src/cluster: linkages, NN-chain agglomerative,
// constrained clustering, Silhouette, medoids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "cluster/agglomerative.h"
#include "cluster/constrained.h"
#include "cluster/medoid.h"
#include "cluster/silhouette.h"
#include "util/rng.h"

namespace dust::cluster {
namespace {

using la::DistanceMatrix;
using la::Metric;
using la::Vec;

// Two well-separated blobs of 2D points.
std::vector<Vec> TwoBlobs(size_t per_blob, uint64_t seed = 99) {
  dust::Rng rng(seed);
  std::vector<Vec> points;
  for (size_t i = 0; i < per_blob; ++i) {
    points.push_back({static_cast<float>(rng.NextGaussian()) * 0.2f,
                      static_cast<float>(rng.NextGaussian()) * 0.2f});
  }
  for (size_t i = 0; i < per_blob; ++i) {
    points.push_back({10.0f + static_cast<float>(rng.NextGaussian()) * 0.2f,
                      10.0f + static_cast<float>(rng.NextGaussian()) * 0.2f});
  }
  return points;
}

TEST(LinkageTest, Names) {
  EXPECT_STREQ(LinkageName(Linkage::kSingle), "single");
  EXPECT_STREQ(LinkageName(Linkage::kComplete), "complete");
  EXPECT_STREQ(LinkageName(Linkage::kAverage), "average");
  EXPECT_STREQ(LinkageName(Linkage::kWard), "ward");
}

TEST(LinkageTest, InvalidLinkageValueAborts) {
  // A corrupt enum value used to name itself "?" and make every
  // Lance-Williams update 0, merging everything at distance 0.
  const Linkage corrupt = static_cast<Linkage>(42);
  EXPECT_DEATH(LinkageName(corrupt), "invalid Linkage");
  EXPECT_DEATH(LanceWilliams(corrupt, 2, 5, 1, 1, 1, 1), "invalid Linkage");
  const std::vector<Vec> points = {{0.0f}, {1.0f}, {3.0f}};
  EXPECT_DEATH(
      AgglomerativeCluster(DistanceMatrix(points, Metric::kEuclidean), corrupt),
      "invalid Linkage");
}

TEST(LinkageTest, LanceWilliamsSingleComplete) {
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kSingle, 2, 5, 1, 1, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kComplete, 2, 5, 1, 1, 1, 1), 5.0f);
}

TEST(LinkageTest, LanceWilliamsAverageWeightsBySize) {
  // Cluster a has 3 members, b has 1: average = (3*2 + 1*6)/4 = 3.
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kAverage, 2, 6, 1, 3, 1, 2), 3.0f);
}

TEST(AgglomerativeTest, TwoBlobsSplitAtK2) {
  std::vector<Vec> points = TwoBlobs(10);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), Linkage::kAverage);
  EXPECT_EQ(d.num_leaves, 20u);
  EXPECT_EQ(d.merges.size(), 19u);
  std::vector<size_t> labels = CutDendrogram(d, 2);
  // All of blob 1 shares a label; all of blob 2 shares the other.
  for (size_t i = 1; i < 10; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (size_t i = 11; i < 20; ++i) EXPECT_EQ(labels[i], labels[10]);
  EXPECT_NE(labels[0], labels[10]);
}

TEST(AgglomerativeTest, MergeDistancesSortedAscending) {
  std::vector<Vec> points = TwoBlobs(8, 123);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), Linkage::kAverage);
  for (size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance);
  }
}

TEST(AgglomerativeTest, MergeIdsReferenceOnlyEarlierClusters) {
  std::vector<Vec> points = TwoBlobs(6, 7);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), Linkage::kComplete);
  size_t n = d.num_leaves;
  for (size_t i = 0; i < d.merges.size(); ++i) {
    EXPECT_LT(d.merges[i].a, n + i);
    EXPECT_LT(d.merges[i].b, n + i);
    EXPECT_NE(d.merges[i].a, d.merges[i].b);
  }
  EXPECT_EQ(d.merges.back().size, n);
}

TEST(AgglomerativeTest, CutK1AndKn) {
  std::vector<Vec> points = TwoBlobs(5, 11);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), Linkage::kAverage);
  std::vector<size_t> one = CutDendrogram(d, 1);
  for (size_t label : one) EXPECT_EQ(label, 0u);
  std::vector<size_t> all = CutDendrogram(d, 10);
  std::set<size_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(AgglomerativeTest, SingletonAndEmptyInputs) {
  Dendrogram empty = AgglomerativeCluster(
      DistanceMatrix(std::vector<Vec>{}, Metric::kEuclidean),
      Linkage::kAverage);
  EXPECT_EQ(empty.num_leaves, 0u);
  Dendrogram one = AgglomerativeCluster(
      DistanceMatrix(std::vector<Vec>{{1.0f, 2.0f}}, Metric::kEuclidean),
      Linkage::kAverage);
  EXPECT_EQ(one.num_leaves, 1u);
  EXPECT_TRUE(one.merges.empty());
  EXPECT_EQ(CutDendrogram(one, 1), (std::vector<size_t>{0}));
}

// Property suite across linkages: cuts are valid partitions at every k.
class LinkagePropertyTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkagePropertyTest, CutsAreValidPartitionsAtEveryK) {
  std::vector<Vec> points = TwoBlobs(7, 5);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), GetParam());
  for (size_t k = 1; k <= points.size(); ++k) {
    std::vector<size_t> labels = CutDendrogram(d, k);
    ASSERT_EQ(labels.size(), points.size());
    std::set<size_t> unique(labels.begin(), labels.end());
    EXPECT_EQ(unique.size(), k);
    EXPECT_EQ(*unique.rbegin(), k - 1);  // dense labels
  }
}

TEST_P(LinkagePropertyTest, CutsAreNested) {
  // Coarser cuts only merge (never split) finer cuts.
  std::vector<Vec> points = TwoBlobs(6, 17);
  Dendrogram d = AgglomerativeCluster(
      DistanceMatrix(points, Metric::kEuclidean), GetParam());
  for (size_t k = points.size(); k > 1; --k) {
    std::vector<size_t> fine = CutDendrogram(d, k);
    std::vector<size_t> coarse = CutDendrogram(d, k - 1);
    // Same fine label => same coarse label.
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        if (fine[i] == fine[j]) {
          EXPECT_EQ(coarse[i], coarse[j]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkagePropertyTest,
                         ::testing::Values(Linkage::kSingle, Linkage::kComplete,
                                           Linkage::kAverage, Linkage::kWard));

// --- NN-chain golden reference ----------------------------------------------
//
// A frozen copy of the NN-chain as first written: a by-value n x n working
// matrix updated through at()/set() (both triangles), a vector<bool> of
// active slots, a nearest-neighbour scan over every slot, and the
// Lance-Williams update applied column by column. AgglomerativeCluster must
// reproduce it merge for merge, distance bits included, so any faster
// implementation is held to exactly these answers.

float ReferenceLanceWilliams(Linkage linkage, float d_ac, float d_bc,
                             float d_ab, size_t size_a, size_t size_b,
                             size_t size_c) {
  float na = static_cast<float>(size_a);
  float nb = static_cast<float>(size_b);
  float nc = static_cast<float>(size_c);
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(d_ac, d_bc);
    case Linkage::kComplete:
      return std::max(d_ac, d_bc);
    case Linkage::kAverage:
      return (na * d_ac + nb * d_bc) / (na + nb);
    case Linkage::kWard: {
      float total = na + nb + nc;
      return ((na + nc) * d_ac + (nb + nc) * d_bc - nc * d_ab) / total;
    }
  }
  return 0.0f;
}

class ReferenceUnionFind {
 public:
  explicit ReferenceUnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

Dendrogram ReferenceNnChain(DistanceMatrix distances, Linkage linkage) {
  const size_t n = distances.size();
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;

  std::vector<bool> active(n, true);
  std::vector<size_t> size(n, 1);
  std::vector<size_t> chain;
  struct RawMerge {
    size_t slot_a, slot_b;
    float distance;
  };
  std::vector<RawMerge> raw;
  size_t remaining = n;

  auto nearest_active = [&](size_t x) {
    float best = std::numeric_limits<float>::infinity();
    size_t arg = x;
    for (size_t y = 0; y < n; ++y) {
      if (!active[y] || y == x) continue;
      float d = distances.at(x, y);
      if (d < best || (d == best && y < arg)) {
        best = d;
        arg = y;
      }
    }
    return std::make_pair(arg, best);
  };

  while (remaining > 1) {
    if (chain.empty()) {
      for (size_t x = 0; x < n; ++x) {
        if (active[x]) {
          chain.push_back(x);
          break;
        }
      }
    }
    while (true) {
      size_t top = chain.back();
      auto [nn, d] = nearest_active(top);
      if (chain.size() >= 2) {
        size_t prev = chain[chain.size() - 2];
        if (distances.at(top, prev) == d) nn = prev;
      }
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        size_t a = top;
        size_t b = nn;
        chain.pop_back();
        chain.pop_back();
        float d_ab = distances.at(a, b);
        size_t new_size = size[a] + size[b];
        raw.push_back({a, b, d_ab});
        for (size_t c = 0; c < n; ++c) {
          if (!active[c] || c == a || c == b) continue;
          distances.set(a, c,
                        ReferenceLanceWilliams(linkage, distances.at(a, c),
                                               distances.at(b, c), d_ab,
                                               size[a], size[b], size[c]));
        }
        active[b] = false;
        size[a] = new_size;
        --remaining;
        break;
      }
      chain.push_back(nn);
    }
  }

  std::vector<size_t> order(raw.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return raw[x].distance < raw[y].distance;
  });
  ReferenceUnionFind uf(n);
  std::vector<size_t> root_dendro_id(n);
  std::iota(root_dendro_id.begin(), root_dendro_id.end(), 0);
  std::vector<size_t> root_size(n, 1);
  for (size_t i = 0; i < order.size(); ++i) {
    const RawMerge& m = raw[order[i]];
    size_t ra = uf.Find(m.slot_a);
    size_t rb = uf.Find(m.slot_b);
    Merge merge;
    merge.a = root_dendro_id[ra];
    merge.b = root_dendro_id[rb];
    if (merge.a > merge.b) std::swap(merge.a, merge.b);
    merge.distance = m.distance;
    merge.size = root_size[ra] + root_size[rb];
    uf.Union(ra, rb);
    size_t root = uf.Find(ra);
    root_dendro_id[root] = n + i;
    root_size[root] = merge.size;
    dendrogram.merges.push_back(merge);
  }
  return dendrogram;
}

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Seeded points with forced ties: coordinates on a small integer grid (so
// many pairwise distances, and the Lance-Williams values built from them,
// compare equal) or Gaussian, and every third point a duplicate of an
// earlier one (distance exactly 0).
std::vector<Vec> TiedPoints(size_t n, size_t dim, bool grid, uint64_t seed) {
  dust::Rng rng(seed);
  std::vector<Vec> points;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      points.push_back(points[rng.NextBelow(i)]);
      continue;
    }
    Vec v(dim);
    for (float& x : v) {
      x = grid ? static_cast<float>(rng.NextBelow(4)) - 1.0f
               : static_cast<float>(rng.NextGaussian());
    }
    points.push_back(v);
  }
  return points;
}

class NnChainGoldenTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(NnChainGoldenTest, MatchesReferenceMergeForMerge) {
  const Linkage linkage = GetParam();
  for (size_t n : {2u, 3u, 64u, 65u, 300u, 1000u, 2500u}) {
    for (bool grid : {true, false}) {
      const std::vector<Vec> points = TiedPoints(n, 3, grid, 1000 + n);
      const Metric metric = grid ? Metric::kEuclidean : Metric::kCosine;
      const DistanceMatrix distances(points, metric);
      const Dendrogram want = ReferenceNnChain(distances, linkage);
      const Dendrogram got = AgglomerativeCluster(distances, linkage);
      ASSERT_EQ(got.num_leaves, want.num_leaves);
      ASSERT_EQ(got.merges.size(), want.merges.size());
      for (size_t i = 0; i < want.merges.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << LinkageName(linkage) << " n=" << n << " grid=" << grid
                     << " merge " << i);
        ASSERT_EQ(got.merges[i].a, want.merges[i].a);
        ASSERT_EQ(got.merges[i].b, want.merges[i].b);
        ASSERT_EQ(got.merges[i].size, want.merges[i].size);
        ASSERT_EQ(FloatBits(got.merges[i].distance),
                  FloatBits(want.merges[i].distance));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, NnChainGoldenTest,
                         ::testing::Values(Linkage::kSingle, Linkage::kComplete,
                                           Linkage::kAverage, Linkage::kWard));

TEST(ConstrainedTest, CannotLinkIsRespected) {
  // 4 points, two groups: {0,1} same group, {2,3} same group. Even though
  // 0 and 1 are closest, they must never merge.
  std::vector<Vec> points = {{0, 0}, {0.1f, 0}, {5, 5}, {5.1f, 5}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {0, 0, 1, 1};
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  for (const FlatClustering& level : cd.levels) {
    EXPECT_NE(level.labels[0], level.labels[1]);
    EXPECT_NE(level.labels[2], level.labels[3]);
  }
}

TEST(ConstrainedTest, UnconstrainedMergesFully) {
  std::vector<Vec> points = {{0, 0}, {1, 0}, {2, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {0, 1, 2};  // all distinct: no constraints
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  EXPECT_EQ(cd.levels.front().num_clusters, 3u);
  EXPECT_EQ(cd.levels.back().num_clusters, 1u);
}

TEST(ConstrainedTest, StopsWhenOnlyViolatingMergesRemain) {
  std::vector<Vec> points = {{0, 0}, {0.1f, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {7, 7};
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  EXPECT_EQ(cd.levels.back().num_clusters, 2u);
}

TEST(ConstrainedTest, ClosestAdmissiblePairMergesFirst) {
  // Points: a(0), b(0.2), c(10). a-b same group. First merge must join c
  // with one of a/b rather than a-b.
  std::vector<Vec> points = {{0, 0}, {0.2f, 0}, {10, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, {1, 1, 2}, Linkage::kAverage);
  ASSERT_GE(cd.levels.size(), 2u);
  const FlatClustering& after_first = cd.levels[1];
  EXPECT_EQ(after_first.num_clusters, 2u);
  EXPECT_NE(after_first.labels[0], after_first.labels[1]);
  EXPECT_EQ(after_first.labels[1], after_first.labels[2]);  // b merged with c
}

TEST(SilhouetteTest, PerfectSeparationNearOne) {
  std::vector<Vec> points = TwoBlobs(10, 3);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels(20, 0);
  for (size_t i = 10; i < 20; ++i) labels[i] = 1;
  EXPECT_GT(SilhouetteScore(d, labels), 0.9);
}

TEST(SilhouetteTest, BadSplitScoresLower) {
  std::vector<Vec> points = TwoBlobs(10, 3);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> good(20, 0);
  for (size_t i = 10; i < 20; ++i) good[i] = 1;
  // Bad: split across the blobs (even/odd).
  std::vector<size_t> bad(20);
  for (size_t i = 0; i < 20; ++i) bad[i] = i % 2;
  EXPECT_GT(SilhouetteScore(d, good), SilhouetteScore(d, bad));
}

TEST(SilhouetteTest, SingletonsContributeZero) {
  std::vector<Vec> points = {{0, 0}, {1, 1}, {2, 2}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels = {0, 1, 2};  // all singletons
  EXPECT_DOUBLE_EQ(SilhouetteScore(d, labels), 0.0);
}

TEST(SilhouetteTest, ValuesWithinBounds) {
  std::vector<Vec> points = TwoBlobs(6, 31);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels(12);
  for (size_t i = 0; i < 12; ++i) labels[i] = i % 3;
  for (double s : SilhouetteSamples(d, labels)) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(MedoidTest, CenterOfLineIsMedoid) {
  std::vector<Vec> points = {{0, 0}, {1, 0}, {2, 0}, {10, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  EXPECT_EQ(MedoidOf({0, 1, 2, 3}, d), 1u);  // closest to all others: x=1? sum
  // sums: 0:13, 1:1+1+9=11? -> compute: |1-0|+|2-0|+|10-0|=13; from 1: 1+1+9=11;
  // from 2: 2+1+8=11; tie -> lowest index 1.
}

TEST(MedoidTest, MedoidIsAMember) {
  dust::Rng rng(77);
  std::vector<Vec> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back({static_cast<float>(rng.NextGaussian()),
                      static_cast<float>(rng.NextGaussian())});
  }
  std::vector<size_t> members = {3, 7, 11, 20, 25};
  size_t medoid = MedoidOf(members, DistanceMatrix(points, Metric::kEuclidean));
  EXPECT_NE(std::find(members.begin(), members.end(), medoid), members.end());
}

TEST(MedoidTest, ClusterMedoidsMatchMedoidOfFullMatrix) {
  // Per-cluster matrices must reproduce the full matrix's entries bit for
  // bit, so every medoid (ties included: duplicate points) is the one
  // MedoidOf picks over the full cosine matrix.
  dust::Rng rng(202);
  std::vector<Vec> points;
  for (size_t i = 0; i < 240; ++i) {
    if (i % 5 == 4) {
      points.push_back(points[rng.NextBelow(i)]);
      continue;
    }
    Vec v(24);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    points.push_back(v);
  }
  for (size_t k : {1u, 7u, 40u, 240u}) {
    std::vector<size_t> labels = CutDendrogram(
        AgglomerativeCluster(DistanceMatrix(points, Metric::kCosine),
                             Linkage::kAverage),
        k);
    const DistanceMatrix full(points, Metric::kCosine);
    std::vector<size_t> want;
    for (const auto& members : GroupByLabel(labels)) {
      want.push_back(MedoidOf(members, full));
    }
    EXPECT_EQ(ClusterMedoids(points, labels, Metric::kCosine), want)
        << "k=" << k;
  }
}

TEST(MedoidTest, ClusterMedoidsOnePerCluster) {
  std::vector<Vec> points = TwoBlobs(5, 53);
  std::vector<size_t> labels(10, 0);
  for (size_t i = 5; i < 10; ++i) labels[i] = 1;
  std::vector<size_t> medoids =
      ClusterMedoids(points, labels, Metric::kEuclidean);
  ASSERT_EQ(medoids.size(), 2u);
  EXPECT_LT(medoids[0], 5u);
  EXPECT_GE(medoids[1], 5u);
}

}  // namespace
}  // namespace dust::cluster

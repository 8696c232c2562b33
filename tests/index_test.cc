// Unit + property tests for src/index: Flat and HNSW indexes,
// plus the batched query path shared by both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "la/simd/kernels.h"
#include "serve/executor.h"
#include "util/rng.h"

namespace dust::index {
namespace {

std::vector<la::Vec> RandomUnitVectors(size_t n, size_t dim, uint64_t seed) {
  dust::Rng rng(seed);
  std::vector<la::Vec> out;
  for (size_t i = 0; i < n; ++i) {
    la::Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(v);
  }
  return out;
}

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// Asserts equal ids and bit-identical distances, rank by rank.
void ExpectSameHits(const std::vector<SearchHit>& expected,
                    const std::vector<SearchHit>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    EXPECT_EQ(FloatBits(actual[i].distance), FloatBits(expected[i].distance))
        << "rank " << i;
  }
}

TEST(FlatIndexTest, ExactNearestNeighbor) {
  FlatIndex index(2, la::Metric::kEuclidean);
  index.Add({0, 0});
  index.Add({5, 0});
  index.Add({0, 3});
  auto hits = index.Search({0.4f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 2u);
}

TEST(FlatIndexTest, KLargerThanSizeReturnsAll) {
  FlatIndex index(1, la::Metric::kEuclidean);
  index.Add({1.0f});
  auto hits = index.Search({0.0f}, 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(FlatIndexTest, IdenticalVectorAtDistanceZero) {
  FlatIndex index(3, la::Metric::kCosine);
  la::Vec v = {0.6f, 0.8f, 0.0f};
  index.Add(v);
  auto hits = index.Search(v, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NEAR(hits[0].distance, 0.0f, 1e-5);
}

TEST(FlatIndexTest, AddAllMatchesPerVectorAdd) {
  // The bulk override must be observably identical to the Add loop it
  // replaces: same ids, same cached norms, bit-identical search results.
  auto vectors = RandomUnitVectors(120, 8, 61);
  FlatIndex bulk(8, la::Metric::kCosine);
  bulk.AddAll(vectors);
  FlatIndex loop(8, la::Metric::kCosine);
  for (const auto& v : vectors) loop.Add(v);
  ASSERT_EQ(bulk.size(), loop.size());
  auto queries = RandomUnitVectors(8, 8, 6100);
  auto expected = loop.SearchBatch(queries, 7, nullptr);
  auto actual = bulk.SearchBatch(queries, 7, nullptr);
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size());
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, actual[q][i].id);
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance);
    }
  }
}

TEST(FlatIndexTest, AddAllAppendsAfterExistingVectors) {
  auto vectors = RandomUnitVectors(10, 4, 62);
  FlatIndex index(4, la::Metric::kCosine);
  index.Add(vectors[0]);
  index.AddAll({vectors.begin() + 1, vectors.end()});
  EXPECT_EQ(index.size(), 10u);
  auto hits = index.Search(vectors[9], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 9u);
}

TEST(FinalizeHitsTest, SortsByDistanceThenId) {
  std::vector<SearchHit> hits = {{3, 0.5f}, {1, 0.5f}, {2, 0.1f}};
  FinalizeHits(&hits, 3);
  EXPECT_EQ(hits[0].id, 2u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[2].id, 3u);
  FinalizeHits(&hits, 1);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(FinalizeHitsTest, EqualDistancesAtTheCutKeepTheLowerId) {
  std::vector<SearchHit> hits = {{5, 0.3f}, {9, 0.2f}, {4, 0.3f},
                                 {7, 0.3f}, {1, 0.9f}, {2, 0.2f}};
  hits.reserve(64);
  FinalizeHits(&hits, 3);
  ExpectSameHits({{2, 0.2f}, {9, 0.2f}, {4, 0.3f}}, hits);
  EXPECT_LE(hits.capacity(), 3u);
}

TEST(FinalizeHitsTest, KZeroKeepsNothing) {
  std::vector<SearchHit> hits = {{3, 0.5f}, {1, 0.5f}, {2, 0.1f}};
  FinalizeHits(&hits, 0);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(hits.capacity(), 0u);
}

TEST(FinalizeHitsTest, KAtLeastSizeSortsEveryHit) {
  for (size_t k : {4, 10}) {
    std::vector<SearchHit> hits = {{3, 0.5f}, {8, 0.1f}, {1, 0.5f}, {0, 0.7f}};
    hits.reserve(32);
    FinalizeHits(&hits, k);
    ExpectSameHits({{8, 0.1f}, {1, 0.5f}, {3, 0.5f}, {0, 0.7f}}, hits);
    EXPECT_LE(hits.capacity(), k);
  }
}

TEST(HnswIndexTest, FindsIdenticalVector) {
  HnswIndex hnsw(8, la::Metric::kCosine);
  auto vectors = RandomUnitVectors(300, 8, 9);
  for (const auto& v : vectors) hnsw.Add(v);
  auto hits = hnsw.Search(vectors[123], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 123u);
  EXPECT_NEAR(hits[0].distance, 0.0f, 1e-5);
}

TEST(HnswIndexTest, HierarchyHasUpperLayers) {
  HnswIndex hnsw(8, la::Metric::kCosine);
  auto vectors = RandomUnitVectors(500, 8, 10);
  for (const auto& v : vectors) hnsw.Add(v);
  // With M=16 the expected fraction of nodes above layer 0 is 1/16, so 500
  // inserts give upper layers with overwhelming probability.
  EXPECT_GE(hnsw.max_level(), 1);
}

TEST(HnswIndexTest, RecallAt10AtLeast95PercentVsFlat) {
  const size_t kDim = 16;
  auto vectors = RandomUnitVectors(2000, kDim, 11);
  HnswIndex hnsw(kDim, la::Metric::kCosine);
  FlatIndex flat(kDim, la::Metric::kCosine);
  for (const auto& v : vectors) {
    hnsw.Add(v);
    flat.Add(v);
  }
  size_t found = 0;
  size_t total = 0;
  for (uint64_t q = 0; q < 50; ++q) {
    la::Vec query = RandomUnitVectors(1, kDim, 4000 + q)[0];
    auto exact = flat.Search(query, 10);
    auto approx = hnsw.Search(query, 10);
    std::set<size_t> approx_ids;
    for (const auto& h : approx) approx_ids.insert(h.id);
    for (const auto& h : exact) {
      ++total;
      if (approx_ids.count(h.id)) ++found;
    }
  }
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(total), 0.95);
}

TEST(HnswIndexTest, EuclideanMetricExactOnSmallSet) {
  HnswIndex hnsw(2, la::Metric::kEuclidean);
  hnsw.Add({0, 0});
  hnsw.Add({5, 0});
  hnsw.Add({0, 3});
  auto hits = hnsw.Search({0.4f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 2u);
}

TEST(HnswIndexTest, DeterministicAcrossRebuilds) {
  auto vectors = RandomUnitVectors(400, 12, 14);
  la::Vec query = RandomUnitVectors(1, 12, 5000)[0];
  std::vector<size_t> first_ids;
  for (int run = 0; run < 2; ++run) {
    HnswIndex hnsw(12, la::Metric::kCosine);
    for (const auto& v : vectors) hnsw.Add(v);
    auto hits = hnsw.Search(query, 10);
    std::vector<size_t> ids;
    for (const auto& h : hits) ids.push_back(h.id);
    if (run == 0) {
      first_ids = ids;
    } else {
      EXPECT_EQ(first_ids, ids);
    }
  }
}

// Property suite over all index types: structural invariants.
using IndexFactory = std::function<std::unique_ptr<VectorIndex>()>;

class IndexPropertyTest : public ::testing::TestWithParam<
                              std::pair<const char*, IndexFactory>> {};

TEST_P(IndexPropertyTest, HitsAreValidSortedAndBounded) {
  auto index = GetParam().second();
  auto vectors = RandomUnitVectors(120, index->dim(), 33);
  index->AddAll(vectors);
  EXPECT_EQ(index->size(), 120u);
  for (uint64_t q = 0; q < 10; ++q) {
    la::Vec query = RandomUnitVectors(1, index->dim(), 3000 + q)[0];
    auto hits = index->Search(query, 7);
    EXPECT_LE(hits.size(), 7u);
    std::set<size_t> seen;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_LT(hits[i].id, 120u);
      EXPECT_TRUE(seen.insert(hits[i].id).second) << "duplicate id";
      if (i > 0) {
        EXPECT_GE(hits[i].distance, hits[i - 1].distance);
      }
    }
  }
}

TEST_P(IndexPropertyTest, EmptyIndexReturnsNothing) {
  auto index = GetParam().second();
  auto hits = index->Search(la::Vec(index->dim(), 0.5f), 3);
  EXPECT_TRUE(hits.empty());
}

TEST_P(IndexPropertyTest, SearchBatchMatchesSequentialSearch) {
  auto index = GetParam().second();
  index->AddAll(RandomUnitVectors(150, index->dim(), 44));
  auto queries = RandomUnitVectors(23, index->dim(), 4500);
  auto batched = index->SearchBatch(queries, 6, nullptr);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto sequential = index->Search(queries[q], 6);
    ASSERT_EQ(batched[q].size(), sequential.size()) << "query " << q;
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batched[q][i].id, sequential[i].id) << "query " << q;
      EXPECT_EQ(FloatBits(batched[q][i].distance),
                FloatBits(sequential[i].distance))
          << "query " << q;
    }
  }
}

TEST_P(IndexPropertyTest, SearchBatchEmptyQueries) {
  auto index = GetParam().second();
  index->AddAll(RandomUnitVectors(30, index->dim(), 45));
  EXPECT_TRUE(index->SearchBatch({}, 5, nullptr).empty());
}

TEST_P(IndexPropertyTest, SearchBatchParityAcrossKernelBackends) {
  // The same built index must rank candidates identically whether the
  // distance kernels run on the scalar fallback (DUST_FORCE_SCALAR) or the
  // dispatched SIMD backend; distances may differ only by accumulation
  // noise. When the environment already forces scalar (the CI fallback
  // leg) both sides run scalar and the test degenerates to determinism.
  auto index = GetParam().second();
  index->AddAll(RandomUnitVectors(150, index->dim(), 46));
  auto queries = RandomUnitVectors(16, index->dim(), 4700);

  la::simd::ForceScalar(true);
  auto scalar_results = index->SearchBatch(queries, 8, nullptr);
  la::simd::ForceScalar(false);  // back to the startup selection
  auto active_results = index->SearchBatch(queries, 8, nullptr);

  ASSERT_EQ(scalar_results.size(), active_results.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(scalar_results[q].size(), active_results[q].size())
        << "query " << q;
    for (size_t i = 0; i < scalar_results[q].size(); ++i) {
      EXPECT_EQ(scalar_results[q][i].id, active_results[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_NEAR(scalar_results[q][i].distance,
                  active_results[q][i].distance, 1e-5f)
          << "query " << q << " rank " << i;
    }
  }
}

// --- tombstoned deletes ----------------------------------------------------

TEST_P(IndexPropertyTest, TombstonedVectorsNeverReturned) {
  // Shared mutable-lake invariant: after random deletes, searches return
  // only live ids, stay sorted and duplicate-free, and the live/size
  // accounting is exact. Holds for every index family.
  auto index = GetParam().second();
  auto vectors = RandomUnitVectors(140, index->dim(), 77);
  index->AddAll(vectors);
  dust::Rng rng(78);
  std::vector<size_t> dead_ids = rng.SampleWithoutReplacement(140, 35);
  EXPECT_EQ(index->RemoveAll(dead_ids), 35u);
  EXPECT_EQ(index->size(), 140u);
  EXPECT_EQ(index->live_size(), 105u);
  EXPECT_EQ(index->num_tombstones(), 35u);
  std::set<size_t> dead(dead_ids.begin(), dead_ids.end());
  for (uint64_t q = 0; q < 10; ++q) {
    la::Vec query = RandomUnitVectors(1, index->dim(), 7000 + q)[0];
    auto hits = index->Search(query, 20);
    EXPECT_LE(hits.size(), 20u);
    std::set<size_t> seen;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_LT(hits[i].id, 140u);
      EXPECT_EQ(dead.count(hits[i].id), 0u)
          << "tombstoned id " << hits[i].id << " returned";
      EXPECT_TRUE(seen.insert(hits[i].id).second) << "duplicate id";
      if (i > 0) {
        EXPECT_GE(hits[i].distance, hits[i - 1].distance);
      }
    }
  }
}

TEST_P(IndexPropertyTest, RemoveReturnSemantics) {
  auto index = GetParam().second();
  index->AddAll(RandomUnitVectors(10, index->dim(), 79));
  EXPECT_TRUE(index->Remove(3));
  EXPECT_FALSE(index->Remove(3));   // already dead
  EXPECT_FALSE(index->Remove(99));  // out of range
  EXPECT_EQ(index->RemoveAll({1, 1, 2}), 2u);  // duplicate counts once
  EXPECT_EQ(index->live_size(), 7u);
  EXPECT_EQ(index->Tombstones(), (std::vector<size_t>{1, 2, 3}));
  EXPECT_TRUE(index->IsDead(2));
  EXPECT_FALSE(index->IsDead(0));
}

/// Asserts that `factory`'s index, after deleting `num_dead` random ids,
/// answers queries bit-identically to a freshly built index over the
/// survivors (ids mapped through the survivor order). Only meaningful for
/// an exact index (flat).
void ExpectDeleteParityVsRebuild(
    const std::function<std::unique_ptr<VectorIndex>()>& factory,
    uint64_t seed) {
  const size_t kN = 180;
  auto full = factory();
  auto vectors = RandomUnitVectors(kN, full->dim(), seed);
  full->AddAll(vectors);
  dust::Rng rng(seed + 1);
  std::vector<size_t> dead_ids = rng.SampleWithoutReplacement(kN, kN / 3);
  ASSERT_EQ(full->RemoveAll(dead_ids), kN / 3);
  std::set<size_t> dead(dead_ids.begin(), dead_ids.end());

  auto rebuilt = factory();
  std::vector<la::Vec> survivors;
  std::vector<size_t> survivor_of;  // old id -> rebuilt id
  survivor_of.assign(kN, size_t{0} - 1);
  for (size_t id = 0; id < kN; ++id) {
    if (dead.count(id)) continue;
    survivor_of[id] = survivors.size();
    survivors.push_back(vectors[id]);
  }
  rebuilt->AddAll(survivors);

  auto queries = RandomUnitVectors(24, full->dim(), seed + 2);
  auto filtered = full->SearchBatch(queries, 12, nullptr);
  auto fresh = rebuilt->SearchBatch(queries, 12, nullptr);
  ASSERT_EQ(filtered.size(), fresh.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(filtered[q].size(), fresh[q].size()) << "query " << q;
    for (size_t i = 0; i < filtered[q].size(); ++i) {
      EXPECT_EQ(survivor_of[filtered[q][i].id], fresh[q][i].id)
          << "query " << q << " rank " << i;
      // Exact float equality: filtering must change which vectors are
      // scored, never how they are scored.
      EXPECT_EQ(filtered[q][i].distance, fresh[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(TombstoneParityTest, FlatMatchesRebuildOverSurvivors) {
  ExpectDeleteParityVsRebuild(
      [] {
        return std::unique_ptr<VectorIndex>(
            new FlatIndex(12, la::Metric::kCosine));
      },
      81);
}

/// What a flat scan's top k must be a prefix of: every live id scored by
/// the norm-cached DistanceToMany, fully sorted by (distance, id).
std::vector<SearchHit> FullSortOracle(const std::vector<la::Vec>& vectors,
                                      const std::vector<float>& norms,
                                      const std::set<size_t>& dead,
                                      la::Metric metric,
                                      const la::Vec& query) {
  std::vector<float> distances;
  la::DistanceToMany(metric, query, vectors, norms, &distances);
  std::vector<SearchHit> hits;
  for (size_t id = 0; id < vectors.size(); ++id) {
    if (dead.count(id) == 0) hits.push_back({id, distances[id]});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  return hits;
}

TEST(FlatIndexTest, BlockedScanMatchesFullSortOracle) {
  // Blocks, row groups, k-bounded heaps and the executor must not change a
  // bit of the answer. The grid straddles the block and group sizes,
  // tombstones every 11th id, and duplicates every 7th vector so equal
  // distances meet at the cut. 20 dims run the kernels' vector body and
  // their scalar tail.
  constexpr size_t kDim = 20;
  constexpr size_t kBlock = FlatIndex::kBlockRows;
  constexpr size_t kGroup = FlatIndex::kGroupRows;
  serve::Executor inline_pool(0);
  serve::Executor pool(4);
  for (la::Metric metric : {la::Metric::kCosine, la::Metric::kEuclidean,
                            la::Metric::kManhattan}) {
    for (size_t n : {size_t{0}, size_t{1}, kBlock - 1, kBlock + 1,
                     6 * kBlock - 71}) {
      std::vector<la::Vec> vectors = RandomUnitVectors(n, kDim, 90 + n);
      for (size_t id = 6; id < n; id += 7) vectors[id] = vectors[id - 3];
      const std::vector<float> norms = la::NormsOf(vectors);
      FlatIndex index(kDim, metric);
      index.AddAll(vectors);
      std::set<size_t> dead;
      for (size_t id = 5; id < n; id += 11) {
        ASSERT_TRUE(index.Remove(id));
        dead.insert(id);
      }
      for (size_t rows : {size_t{1}, kGroup - 1, kGroup + 1, size_t{40}}) {
        // Half the rows copy a stored (often duplicated) vector, so ties
        // sit at the top of their lists.
        std::vector<la::Vec> queries = RandomUnitVectors(rows, kDim, 9000 + n);
        for (size_t q = 0; q < rows && n > 0; q += 2) {
          queries[q] = vectors[(q * 37 + 6) % n];
        }
        std::vector<std::vector<SearchHit>> sorted;
        for (const la::Vec& query : queries) {
          sorted.push_back(FullSortOracle(vectors, norms, dead, metric, query));
        }
        for (size_t k : {size_t{0}, size_t{1}, size_t{7}, n, n + 5}) {
          SCOPED_TRACE(std::string(la::MetricName(metric)) + " n=" +
                       std::to_string(n) + " rows=" + std::to_string(rows) +
                       " k=" + std::to_string(k));
          std::vector<std::vector<SearchHit>> expected;
          for (const std::vector<SearchHit>& all : sorted) {
            expected.emplace_back(all.begin(),
                                  all.begin() + std::min(k, all.size()));
          }
          for (size_t q = 0; q < rows; ++q) {
            ExpectSameHits(expected[q], index.Search(queries[q], k));
          }
          for (serve::Executor* executor : {&inline_pool, &pool,
                                            static_cast<serve::Executor*>(
                                                nullptr)}) {
            auto batched = index.SearchBatch(queries, k, executor);
            ASSERT_EQ(batched.size(), rows);
            for (size_t q = 0; q < rows; ++q) {
              ExpectSameHits(expected[q], batched[q]);
            }
          }
        }
      }
    }
  }
}

TEST(FlatIndexTest, DeleteThenSearchReturnsKLiveHits) {
  // Tombstones are skipped at selection, not truncated after: k live
  // vectors in the store means k hits, however many neighbors are dead.
  FlatIndex index(8, la::Metric::kCosine);
  index.AddAll(RandomUnitVectors(100, 8, 88));
  std::vector<size_t> dead;
  for (size_t id = 0; id < 60; ++id) dead.push_back(id);
  ASSERT_EQ(index.RemoveAll(dead), 60u);
  auto hits = index.Search(RandomUnitVectors(1, 8, 89)[0], 30);
  EXPECT_EQ(hits.size(), 30u);
  for (const auto& h : hits) EXPECT_GE(h.id, 60u);
  // Nearly everything dead: all three live vectors still come back.
  ASSERT_EQ(index.RemoveAll([] {
              std::vector<size_t> rest;
              for (size_t id = 60; id < 97; ++id) rest.push_back(id);
              return rest;
            }()),
            37u);
  hits = index.Search(RandomUnitVectors(1, 8, 90)[0], 10);
  EXPECT_EQ(hits.size(), 3u);
}

TEST(HnswIndexTest, HeavyDeletesStillReachAllLiveVectors) {
  // With ef >= size the beam is exhaustive, and dead nodes must still be
  // expanded as waypoints: every live vector is reachable even when most
  // of the graph is tombstoned.
  HnswIndex hnsw(8, la::Metric::kCosine);
  auto vectors = RandomUnitVectors(50, 8, 91);
  for (const auto& v : vectors) hnsw.Add(v);
  std::vector<size_t> dead;
  for (size_t id = 0; id < 40; ++id) dead.push_back(id);
  ASSERT_EQ(hnsw.RemoveAll(dead), 40u);
  auto hits = hnsw.Search(RandomUnitVectors(1, 8, 92)[0], 10);
  EXPECT_EQ(hits.size(), 10u);
  for (const auto& h : hits) EXPECT_GE(h.id, 40u);
}

TEST(HnswIndexTest, RecallHoldsAfterTombstoning) {
  // Approximate parity: HNSW cannot promise bit-identical results to a
  // rebuild, but filtered recall against a flat scan over the survivors
  // must stay high (the ef widening compensates for dead waypoints).
  const size_t kDim = 16;
  auto vectors = RandomUnitVectors(2000, kDim, 93);
  HnswIndex hnsw(kDim, la::Metric::kCosine);
  FlatIndex flat(kDim, la::Metric::kCosine);
  for (const auto& v : vectors) {
    hnsw.Add(v);
    flat.Add(v);
  }
  dust::Rng rng(94);
  std::vector<size_t> dead_ids = rng.SampleWithoutReplacement(2000, 200);
  ASSERT_EQ(hnsw.RemoveAll(dead_ids), 200u);
  ASSERT_EQ(flat.RemoveAll(dead_ids), 200u);
  size_t found = 0;
  size_t total = 0;
  for (uint64_t q = 0; q < 50; ++q) {
    la::Vec query = RandomUnitVectors(1, kDim, 9500 + q)[0];
    auto exact = flat.Search(query, 10);
    auto approx = hnsw.Search(query, 10);
    std::set<size_t> approx_ids;
    for (const auto& h : approx) approx_ids.insert(h.id);
    for (const auto& h : exact) {
      ++total;
      if (approx_ids.count(h.id)) ++found;
    }
  }
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(total), 0.9);
}

TEST_P(IndexPropertyTest, CompactDropsTombstonesAndPreservesResults) {
  auto index = GetParam().second();
  auto vectors = RandomUnitVectors(120, index->dim(), 95);
  index->AddAll(vectors);
  dust::Rng rng(96);
  std::vector<size_t> dead_ids = rng.SampleWithoutReplacement(120, 30);
  ASSERT_EQ(index->RemoveAll(dead_ids), 30u);

  std::vector<size_t> remap;
  auto compacted = index->Compact(&remap);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value()->size(), 90u);
  EXPECT_EQ(compacted.value()->num_tombstones(), 0u);
  ASSERT_EQ(remap.size(), 120u);
  // The remap is the order-preserving survivor numbering.
  size_t next = 0;
  for (size_t id = 0; id < 120; ++id) {
    if (index->IsDead(id)) {
      EXPECT_EQ(remap[id], VectorIndex::kInvalidId);
    } else {
      EXPECT_EQ(remap[id], next++);
    }
  }
  // Every compacted hit maps back to a live original id. (Exact result
  // parity per type is covered by TombstoneParityTest; approximate types
  // rebuild their graphs, so only the id contract is universal.)
  for (uint64_t q = 0; q < 5; ++q) {
    la::Vec query = RandomUnitVectors(1, index->dim(), 9700 + q)[0];
    for (const auto& h : compacted.value()->Search(query, 10)) {
      EXPECT_LT(h.id, 90u);
    }
  }
}

TEST(IndexOptionsTest, KnobsReachTheConcreteConfigs) {
  IndexOptions options;
  options.hnsw_m = 6;
  options.hnsw_ef_search = 40;
  auto hnsw = MakeVectorIndex("hnsw", 8, la::Metric::kCosine, options);
  auto* hnsw_index = dynamic_cast<HnswIndex*>(hnsw.get());
  ASSERT_NE(hnsw_index, nullptr);
  EXPECT_EQ(hnsw_index->config().M, 6u);
  EXPECT_EQ(hnsw_index->config().ef_search, 40u);
  // Zero fields keep the type defaults.
  auto plain = MakeVectorIndex("hnsw", 8, la::Metric::kCosine);
  auto* plain_hnsw = dynamic_cast<HnswIndex*>(plain.get());
  ASSERT_NE(plain_hnsw, nullptr);
  EXPECT_EQ(plain_hnsw->config().M, HnswConfig{}.M);
}

TEST(IndexTypeTest, OnlyTheThreeIndexTypesAreKnown) {
  // IsKnownIndexType is the one check a spec passes on its way in (CLI
  // flags, config files); anything it accepts MakeVectorIndex must build.
  for (const char* name : {"flat", "hnsw"}) {
    EXPECT_TRUE(IsKnownIndexType(name)) << name;
    EXPECT_NE(MakeVectorIndex(name, 4, la::Metric::kCosine), nullptr);
  }
  // Removed types, their old spec syntax, and typos are all unknown.
  for (const char* name :
       {"ivf", "lsh", "sharded", "sharded:flat:4", "faiss", ""}) {
    EXPECT_FALSE(IsKnownIndexType(name)) << '"' << name << '"';
  }
}

TEST(IndexOptionsTest, ValidationRejectsNonsense) {
  EXPECT_TRUE(ValidateIndexOptions(IndexOptions{}).ok());
  IndexOptions tuned;
  tuned.hnsw_m = 2;
  tuned.hnsw_ef_search = 1;
  EXPECT_TRUE(ValidateIndexOptions(tuned).ok());
  IndexOptions degenerate;
  degenerate.hnsw_m = 1;  // a degree-1 graph cannot stay connected
  Status status = ValidateIndexOptions(degenerate);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexPropertyTest,
    ::testing::Values(
        std::make_pair("flat",
                       IndexFactory([] {
                         return std::unique_ptr<VectorIndex>(
                             new FlatIndex(12, la::Metric::kCosine));
                       })),
        std::make_pair("hnsw", IndexFactory([] {
                         return std::unique_ptr<VectorIndex>(
                             new HnswIndex(12, la::Metric::kCosine));
                       }))),
    [](const ::testing::TestParamInfo<std::pair<const char*, IndexFactory>>&
           info) { return info.param.first; });

}  // namespace
}  // namespace dust::index

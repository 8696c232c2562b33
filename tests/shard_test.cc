// Tests for src/shard: scatter-gather correctness (sharded-vs-unsharded
// parity for exact backends on both metrics), placement policies, uneven
// and empty shards, k > lake size, spec parsing, and the factory/validation
// wiring through index::MakeVectorIndex.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "index/flat_index.h"
#include "shard/sharded_index.h"
#include "util/rng.h"

namespace dust::shard {
namespace {

using index::IndexOptions;
using index::SearchHit;
using index::VectorIndex;

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

ShardedIndexConfig MakeConfig(const std::string& child_type, size_t shards,
                              PlacementPolicy placement) {
  ShardedIndexConfig config;
  config.child_type = child_type;
  config.num_shards = shards;
  config.placement = placement;
  return config;
}

/// Asserts SearchBatch parity between two indexes over the same lake: same
/// ids and bit-identical float distances, per the exact-backend contract.
void ExpectBitIdenticalBatches(const VectorIndex& expected_index,
                               const VectorIndex& actual_index,
                               size_t num_queries, size_t k, uint64_t seed) {
  auto queries = RandomUnitVectors(num_queries, expected_index.dim(), seed);
  auto expected = expected_index.SearchBatch(queries, k);
  auto actual = actual_index.SearchBatch(queries, k);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, actual[q][i].id)
          << "query " << q << " rank " << i;
      // Exact float equality on purpose: per-vector distances are computed
      // by the same kernel on the same bytes, so sharding must not perturb
      // them at all.
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// --- exact-backend parity (the acceptance criterion) ------------------------

struct ParityCase {
  la::Metric metric;
  PlacementPolicy placement;
};

class ShardedFlatParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ShardedFlatParityTest, BitIdenticalToUnshardedFlat) {
  const ParityCase& param = GetParam();
  const size_t kDim = 16;
  auto vectors = RandomUnitVectors(500, kDim, 81);

  index::FlatIndex flat(kDim, param.metric);
  flat.AddAll(vectors);

  ShardedIndexConfig config;
  config.child_type = "flat";
  config.num_shards = 4;
  config.placement = param.placement;
  ShardedIndex sharded(kDim, param.metric, config);
  sharded.AddAll(vectors);

  ASSERT_EQ(sharded.size(), flat.size());
  ExpectBitIdenticalBatches(flat, sharded, 32, 10, 9500);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndPlacements, ShardedFlatParityTest,
    ::testing::Values(
        ParityCase{la::Metric::kCosine, PlacementPolicy::kRoundRobin},
        ParityCase{la::Metric::kEuclidean, PlacementPolicy::kRoundRobin},
        ParityCase{la::Metric::kManhattan, PlacementPolicy::kRoundRobin},
        ParityCase{la::Metric::kCosine, PlacementPolicy::kHash},
        ParityCase{la::Metric::kEuclidean, PlacementPolicy::kHash}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(la::MetricName(info.param.metric)) + "_" +
             PlacementPolicyName(info.param.placement);
    });

TEST(ShardedIndexTest, FullProbeIvfParityOnBothMetrics) {
  // A full-probe IVF scans every list, so it is exact and must agree with
  // the sharded full-probe IVF bit for bit — per-shard k-means centroids
  // differ from the global ones, but with every list probed the candidate
  // set is the whole shard either way.
  const size_t kDim = 12;
  auto vectors = RandomUnitVectors(300, kDim, 83);
  IndexOptions full_probe;
  full_probe.ivf_nlist = 4;
  full_probe.ivf_nprobe = 4;
  for (la::Metric metric : {la::Metric::kCosine, la::Metric::kEuclidean}) {
    auto unsharded = index::MakeVectorIndex("ivf", kDim, metric, full_probe);
    unsharded->AddAll(vectors);

    ShardedIndexConfig config;
    config.child_type = "ivf";
    config.num_shards = 3;
    config.child_options = full_probe;
    ShardedIndex sharded(kDim, metric, config);
    sharded.AddAll(vectors);

    ExpectBitIdenticalBatches(*unsharded, sharded, 16, 8, 9600);
  }
}

TEST(ShardedIndexTest, SingleQuerySearchMatchesBatch) {
  const size_t kDim = 10;
  ShardedIndex sharded(kDim, la::Metric::kCosine,
                       MakeConfig("flat", 4, PlacementPolicy::kRoundRobin));
  sharded.AddAll(RandomUnitVectors(200, kDim, 85));
  auto queries = RandomUnitVectors(8, kDim, 9700);
  auto batched = sharded.SearchBatch(queries, 6);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto single = sharded.Search(queries[q], 6);
    ASSERT_EQ(single.size(), batched[q].size()) << "query " << q;
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(single[i].id, batched[q][i].id) << "query " << q;
      EXPECT_EQ(single[i].distance, batched[q][i].distance) << "query " << q;
    }
  }
}

// --- placement and shape ----------------------------------------------------

TEST(ShardedIndexTest, RoundRobinPlacementIsBalanced) {
  ShardedIndex sharded(8, la::Metric::kCosine,
                       MakeConfig("flat", 4, PlacementPolicy::kRoundRobin));
  sharded.AddAll(RandomUnitVectors(10, 8, 87));
  // 10 vectors over 4 shards round-robin: sizes 3,3,2,2 in shard order.
  EXPECT_EQ(sharded.shard_size(0), 3u);
  EXPECT_EQ(sharded.shard_size(1), 3u);
  EXPECT_EQ(sharded.shard_size(2), 2u);
  EXPECT_EQ(sharded.shard_size(3), 2u);
  // Global ids are the append order: shard s holds ids congruent to s.
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    for (size_t local = 0; local < sharded.shard_size(s); ++local) {
      EXPECT_EQ(sharded.global_id(s, local) % sharded.num_shards(), s);
    }
  }
}

TEST(ShardedIndexTest, HashPlacementIsContentAddressed) {
  // The same vector set in a different insertion order must land on the
  // same shards (content addressing), and sizes are typically uneven.
  auto vectors = RandomUnitVectors(64, 8, 89);
  ShardedIndexConfig config = MakeConfig("flat", 4, PlacementPolicy::kHash);
  ShardedIndex forward(8, la::Metric::kCosine, config);
  forward.AddAll(vectors);
  ShardedIndex backward(8, la::Metric::kCosine, config);
  std::vector<la::Vec> reversed(vectors.rbegin(), vectors.rend());
  backward.AddAll(reversed);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(forward.shard_size(s), backward.shard_size(s)) << "shard " << s;
  }
  // Uneven shard sizes must still search correctly (parity with flat).
  index::FlatIndex flat(8, la::Metric::kCosine);
  flat.AddAll(vectors);
  ExpectBitIdenticalBatches(flat, forward, 16, 5, 9800);
}

TEST(ShardedIndexTest, EmptyShardsAreHarmless) {
  // More shards than vectors: some shards stay empty and contribute no
  // hits; results still match the unsharded index.
  const size_t kDim = 6;
  auto vectors = RandomUnitVectors(3, kDim, 91);
  ShardedIndex sharded(kDim, la::Metric::kCosine,
                       MakeConfig("flat", 8, PlacementPolicy::kRoundRobin));
  sharded.AddAll(vectors);
  EXPECT_EQ(sharded.size(), 3u);
  EXPECT_EQ(sharded.shard_size(5), 0u);
  index::FlatIndex flat(kDim, la::Metric::kCosine);
  flat.AddAll(vectors);
  ExpectBitIdenticalBatches(flat, sharded, 8, 2, 9900);
}

TEST(ShardedIndexTest, KLargerThanLakeReturnsEverything) {
  const size_t kDim = 6;
  auto vectors = RandomUnitVectors(10, kDim, 93);
  ShardedIndex sharded(kDim, la::Metric::kCosine,
                       MakeConfig("flat", 4, PlacementPolicy::kRoundRobin));
  sharded.AddAll(vectors);
  auto hits = sharded.Search(RandomUnitVectors(1, kDim, 94)[0], 50);
  ASSERT_EQ(hits.size(), 10u);
  std::set<size_t> ids;
  for (const SearchHit& h : hits) ids.insert(h.id);
  EXPECT_EQ(ids.size(), 10u);  // every global id exactly once
  EXPECT_EQ(*ids.rbegin(), 9u);
}

TEST(ShardedIndexTest, EmptyIndexAndEmptyBatch) {
  ShardedIndex sharded(8, la::Metric::kCosine);
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_TRUE(sharded.Search(la::Vec(8, 0.5f), 3).empty());
  EXPECT_TRUE(sharded.SearchBatch({}, 3).empty());
}

TEST(ShardedIndexTest, AddAllMatchesPerVectorAdd) {
  const size_t kDim = 8;
  auto vectors = RandomUnitVectors(37, kDim, 95);
  for (PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kHash}) {
    ShardedIndexConfig config = MakeConfig("flat", 3, placement);
    ShardedIndex bulk(kDim, la::Metric::kCosine, config);
    bulk.AddAll(vectors);
    ShardedIndex loop(kDim, la::Metric::kCosine, config);
    for (const la::Vec& v : vectors) loop.Add(v);
    ASSERT_EQ(bulk.size(), loop.size());
    for (size_t s = 0; s < 3; ++s) {
      ASSERT_EQ(bulk.shard_size(s), loop.shard_size(s)) << "shard " << s;
      for (size_t local = 0; local < bulk.shard_size(s); ++local) {
        EXPECT_EQ(bulk.global_id(s, local), loop.global_id(s, local));
      }
    }
    ExpectBitIdenticalBatches(loop, bulk, 8, 5, 9950);
  }
}

// --- removals route through the global->(shard, local) map ------------------

TEST(ShardedIndexTest, RemoveRoutesToOwningShard) {
  const size_t kDim = 8;
  auto vectors = RandomUnitVectors(30, kDim, 97);
  for (PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kHash}) {
    ShardedIndex sharded(kDim, la::Metric::kCosine,
                         MakeConfig("flat", 3, placement));
    sharded.AddAll(vectors);
    EXPECT_TRUE(sharded.Remove(7));
    EXPECT_FALSE(sharded.Remove(7)) << "second removal of the same id";
    EXPECT_FALSE(sharded.Remove(30)) << "id past the end of the lake";
    EXPECT_EQ(sharded.size(), 30u);
    EXPECT_EQ(sharded.live_size(), 29u);
    EXPECT_TRUE(sharded.IsDead(7));
    // Exactly one child shard carries the tombstone, and the global view
    // agrees with the sum over children.
    size_t child_tombstones = 0;
    for (size_t s = 0; s < 3; ++s) {
      child_tombstones += sharded.shard(s).num_tombstones();
    }
    EXPECT_EQ(child_tombstones, 1u);
    auto hits = sharded.Search(vectors[7], 30);
    ASSERT_EQ(hits.size(), 29u);
    for (const SearchHit& h : hits) EXPECT_NE(h.id, 7u);
  }
}

TEST(ShardedIndexTest, AddAfterRemoveKeepsRoutingCorrect) {
  // Appends grow the global->(shard, local) map; removals issued after an
  // append must still land on the owning shard, and parity with a flat
  // index over the same survivors must hold.
  const size_t kDim = 8;
  auto vectors = RandomUnitVectors(20, kDim, 99);
  auto extra = RandomUnitVectors(5, kDim, 101);
  ShardedIndex sharded(kDim, la::Metric::kCosine,
                       MakeConfig("flat", 3, PlacementPolicy::kRoundRobin));
  sharded.AddAll(vectors);
  ASSERT_EQ(sharded.RemoveAll({2, 11}), 2u);
  for (const la::Vec& v : extra) sharded.Add(v);
  EXPECT_TRUE(sharded.Remove(22));  // one of the appended vectors
  EXPECT_EQ(sharded.size(), 25u);
  EXPECT_EQ(sharded.live_size(), 22u);

  index::FlatIndex survivors(kDim, la::Metric::kCosine);
  std::vector<size_t> survivor_ids;
  for (size_t i = 0; i < 25; ++i) {
    if (i == 2 || i == 11 || i == 22) continue;
    survivors.Add(i < 20 ? vectors[i] : extra[i - 20]);
    survivor_ids.push_back(i);
  }
  auto queries = RandomUnitVectors(12, kDim, 103);
  auto expected = survivors.SearchBatch(queries, 8);
  auto actual = sharded.SearchBatch(queries, 8);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(survivor_ids[expected[q][i].id], actual[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ShardedIndexTest, CompactRebuildsWithoutTombstones) {
  const size_t kDim = 8;
  auto vectors = RandomUnitVectors(24, kDim, 105);
  ShardedIndex sharded(kDim, la::Metric::kCosine,
                       MakeConfig("flat", 3, PlacementPolicy::kRoundRobin));
  sharded.AddAll(vectors);
  ASSERT_EQ(sharded.RemoveAll({0, 5, 23}), 3u);
  auto before = sharded.Search(vectors[1], 21);

  std::vector<size_t> remap;
  auto compacted_or = sharded.Compact(&remap);
  ASSERT_TRUE(compacted_or.ok()) << compacted_or.status().message();
  auto compacted = std::move(compacted_or).value();
  EXPECT_EQ(compacted->size(), 21u);
  EXPECT_EQ(compacted->num_tombstones(), 0u);
  ASSERT_EQ(remap.size(), 24u);
  EXPECT_EQ(remap[0], VectorIndex::kInvalidId);
  EXPECT_EQ(remap[5], VectorIndex::kInvalidId);
  EXPECT_EQ(remap[23], VectorIndex::kInvalidId);

  auto after = compacted->Search(vectors[1], 21);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(remap[before[i].id], after[i].id) << "rank " << i;
    EXPECT_EQ(before[i].distance, after[i].distance) << "rank " << i;
  }
}

TEST(ShardedIndexTest, NameReflectsShape) {
  ShardedIndex sharded(8, la::Metric::kCosine,
                       MakeConfig("flat", 4, PlacementPolicy::kRoundRobin));
  EXPECT_EQ(sharded.name(), "Sharded[4xFlat]");
  EXPECT_EQ(sharded.type_tag(), "sharded");
}

// --- spec parsing and factory wiring ----------------------------------------

TEST(ShardedSpecTest, ParsesWellFormedSpecs) {
  ShardedIndexConfig config;
  ASSERT_TRUE(ParseShardedSpec("sharded", &config));
  EXPECT_EQ(config.child_type, "flat");
  EXPECT_EQ(config.num_shards, 4u);
  EXPECT_EQ(config.placement, PlacementPolicy::kRoundRobin);

  ASSERT_TRUE(ParseShardedSpec("sharded:hnsw", &config));
  EXPECT_EQ(config.child_type, "hnsw");
  EXPECT_EQ(config.num_shards, 4u);

  ASSERT_TRUE(ParseShardedSpec("sharded:ivf:8", &config));
  EXPECT_EQ(config.child_type, "ivf");
  EXPECT_EQ(config.num_shards, 8u);

  ASSERT_TRUE(ParseShardedSpec("sharded:flat:2:hash", &config));
  EXPECT_EQ(config.child_type, "flat");
  EXPECT_EQ(config.num_shards, 2u);
  EXPECT_EQ(config.placement, PlacementPolicy::kHash);
}

TEST(ShardedSpecTest, RejectsMalformedSpecs) {
  ShardedIndexConfig config;
  EXPECT_FALSE(ParseShardedSpec("flat", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:bogus:4", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:sharded:2", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:0", &config));
  // Counts past the 2^16 cap are typos, and must fail validation here
  // rather than pass IsKnownIndexType and abort in the constructor.
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:70000", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:x", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:-2", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:4:bogus", &config));
  EXPECT_FALSE(ParseShardedSpec("sharded:flat:4:hash:extra", &config));
}

TEST(ShardedSpecTest, FactoryAcceptsShardedSpecs) {
  EXPECT_TRUE(index::IsKnownIndexType("sharded"));
  EXPECT_TRUE(index::IsKnownIndexType("sharded:hnsw:8"));
  EXPECT_TRUE(index::IsKnownIndexType("sharded:flat:2:hash"));
  EXPECT_FALSE(index::IsKnownIndexType("sharded:faiss:2"));
  EXPECT_FALSE(index::IsKnownIndexType("sharded:flat:0"));
  EXPECT_FALSE(index::IsKnownIndexType("sharded:flat:70000"));

  auto built = index::MakeVectorIndex("sharded:hnsw:3", 12,
                                      la::Metric::kCosine);
  auto* sharded = dynamic_cast<ShardedIndex*>(built.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 3u);
  EXPECT_EQ(sharded->config().child_type, "hnsw");
}

TEST(ShardedSpecTest, RemovedAndMalformedSpecsAreUnknown) {
  // IsKnownIndexType is the one check a spec passes on its way in (CLI
  // flags, config files, shard manifests): the removed lsh type and a zero
  // shard count are refused there, before MakeVectorIndex could abort.
  EXPECT_FALSE(index::IsKnownIndexType("lsh"));
  EXPECT_FALSE(index::IsKnownIndexType("sharded:lsh:4"));
  EXPECT_FALSE(index::IsKnownIndexType("sharded:flat:0"));
  // The shard layer is metric-agnostic and every child type serves every
  // metric, so any known spec builds under any metric.
  auto built = index::MakeVectorIndex("sharded:flat:4", 6,
                                      la::Metric::kManhattan);
  EXPECT_EQ(built->metric(), la::Metric::kManhattan);
}

TEST(ShardedSpecTest, ChildOptionsReachTheShards) {
  IndexOptions options;
  options.hnsw_m = 8;
  options.hnsw_ef_search = 33;
  auto built =
      index::MakeVectorIndex("sharded:hnsw:2", 12, la::Metric::kCosine,
                             options);
  auto* sharded = dynamic_cast<ShardedIndex*>(built.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->config().child_options.hnsw_m, 8u);
  // The shards themselves were built with the tuned config.
  EXPECT_EQ(sharded->shard(0).name(), "HNSW");
}

TEST(PlacementPolicyTest, NamesAndTagsRoundTrip) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kHash}) {
    PlacementPolicy parsed = PlacementPolicy::kRoundRobin;
    ASSERT_TRUE(PlacementPolicyFromName(PlacementPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
    ASSERT_TRUE(
        PlacementPolicyFromTag(static_cast<uint8_t>(policy), &parsed).ok());
    EXPECT_EQ(parsed, policy);
  }
  PlacementPolicy parsed = PlacementPolicy::kRoundRobin;
  EXPECT_FALSE(PlacementPolicyFromName("roundrobin", &parsed));
  EXPECT_FALSE(PlacementPolicyFromTag(9, &parsed).ok());
}

}  // namespace
}  // namespace dust::shard

// Unit tests for src/search: MinHash, D3L-style and Starmie-style union
// search (with the rerank's bound-and-verify selection), tuple-level
// search, and lake mutations (RemoveTable/AddTable/CompactIndex/UseIndex)
// with their staleness-hash contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "align/hungarian.h"
#include "datagen/tus_generator.h"
#include "la/distance.h"
#include "io/index_io.h"
#include "embed/embedder.h"
#include "search/embedding_search.h"
#include "search/minhash.h"
#include "search/overlap_search.h"
#include "search/tuple_search.h"
#include "serve/executor.h"
#include "util/rng.h"

namespace dust::search {
namespace {

using table::Table;
using table::Value;

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  std::vector<std::string> items = {"a", "b", "c", "d"};
  MinHashSketch s1(items, 64);
  MinHashSketch s2(items, 64);
  EXPECT_DOUBLE_EQ(s1.EstimateJaccard(s2), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  MinHashSketch s1({"a", "b", "c"}, 128);
  MinHashSketch s2({"x", "y", "z"}, 128);
  EXPECT_LT(s1.EstimateJaccard(s2), 0.1);
}

TEST(MinHashTest, EstimateTracksExactJaccard) {
  // |A ∩ B| = 50, |A ∪ B| = 150 -> J = 1/3.
  std::vector<std::string> a, b;
  for (int i = 0; i < 100; ++i) a.push_back("item" + std::to_string(i));
  for (int i = 50; i < 150; ++i) b.push_back("item" + std::to_string(i));
  MinHashSketch sa(a, 256);
  MinHashSketch sb(b, 256);
  EXPECT_NEAR(sa.EstimateJaccard(sb), ExactJaccard(a, b), 0.1);
}

TEST(MinHashTest, EmptySetsScoreZero) {
  MinHashSketch empty({}, 64);
  MinHashSketch full({"a"}, 64);
  EXPECT_DOUBLE_EQ(empty.EstimateJaccard(full), 0.0);
  EXPECT_TRUE(empty.empty());
}

TEST(MinHashTest, EmptyVersusEmptyScoresZero) {
  // Two empty sketches agree on every permutation slot; without the empty
  // guard that would read as J = 1 for two sets with no members at all.
  MinHashSketch a({}, 64);
  MinHashSketch b({}, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 0.0);
}

TEST(MinHashTest, MismatchedWidthsScoreZeroInsteadOfGarbage) {
  // Sketches of different widths are not comparable (slot i hashes under
  // different permutations); the estimate degrades to 0, never aborts.
  MinHashSketch narrow({"a", "b"}, 32);
  MinHashSketch wide({"a", "b"}, 64);
  EXPECT_DOUBLE_EQ(narrow.EstimateJaccard(wide), 0.0);
  EXPECT_DOUBLE_EQ(wide.EstimateJaccard(narrow), 0.0);
}

TEST(MinHashTest, ZeroHashSketchesScoreZero) {
  // num_hashes == 0 would divide 0/0 into NaN without the guard.
  MinHashSketch a({"a"}, 0);
  MinHashSketch b({"a"}, 0);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 0.0);
}

TEST(OverlapConfigTest, DefaultsValidate) {
  EXPECT_TRUE(ValidateOverlapConfig(OverlapSearchConfig{}).ok());
}

TEST(OverlapConfigTest, NegativeWeightRejected) {
  OverlapSearchConfig config;
  config.weight_format = -0.1;
  Status status = ValidateOverlapConfig(config);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(OverlapConfigTest, AllZeroWeightsRejected) {
  OverlapSearchConfig config;
  config.weight_name = 0.0;
  config.weight_values = 0.0;
  config.weight_format = 0.0;
  config.weight_embedding = 0.0;
  Status status = ValidateOverlapConfig(config);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ExactJaccardTest, HandCheckedValues) {
  EXPECT_DOUBLE_EQ(ExactJaccard({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ExactJaccard({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ExactJaccard({"a", "a"}, {"a"}), 1.0);  // set semantics
}

// A small TUS-style benchmark shared by the search tests.
class SearchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::TusConfig config;
    config.num_queries = 3;
    config.unionable_per_query = 4;
    config.distractors_per_base = 1;
    config.base_rows = 60;
    config.seed = 321;
    benchmark_ = new datagen::Benchmark(datagen::GenerateTus(config));
    lake_ = new std::vector<const Table*>();
    for (const auto& t : benchmark_->lake) lake_->push_back(&t.data);
  }
  static void TearDownTestSuite() {
    delete benchmark_;
    delete lake_;
  }
  static datagen::Benchmark* benchmark_;
  static std::vector<const Table*>* lake_;
};

datagen::Benchmark* SearchFixture::benchmark_ = nullptr;
std::vector<const Table*>* SearchFixture::lake_ = nullptr;

// Fraction of the top-n hits that are truly unionable with query q.
double PrecisionAtN(const std::vector<TableHit>& hits,
                    const std::vector<size_t>& truth) {
  if (hits.empty()) return 0.0;
  size_t good = 0;
  for (const TableHit& hit : hits) {
    for (size_t t : truth) {
      if (hit.table_index == t) {
        ++good;
        break;
      }
    }
  }
  return static_cast<double>(good) / static_cast<double>(hits.size());
}

TEST_F(SearchFixture, OverlapSearchRanksUnionableFirst) {
  OverlapUnionSearch search;
  search.IndexLake(*lake_);
  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    auto hits = search.SearchTables(benchmark_->queries[q].data, 4);
    EXPECT_GE(PrecisionAtN(hits, benchmark_->unionable[q]), 0.75)
        << "query " << q;
  }
}

TEST_F(SearchFixture, EmbeddingSearchRanksUnionableFirst) {
  EmbeddingUnionSearch search;
  search.IndexLake(*lake_);
  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    auto hits = search.SearchTables(benchmark_->queries[q].data, 4);
    EXPECT_GE(PrecisionAtN(hits, benchmark_->unionable[q]), 0.75)
        << "query " << q;
  }
}

TEST_F(SearchFixture, EmbeddingSearchShortlistStillFindsUnionable) {
  EmbeddingSearchConfig config;
  config.shortlist = 8;
  config.index_type = "hnsw";
  EmbeddingUnionSearch search(config);
  search.IndexLake(*lake_);
  auto hits = search.SearchTables(benchmark_->queries[0].data, 4);
  EXPECT_GE(PrecisionAtN(hits, benchmark_->unionable[0]), 0.5);
  // Both steps report: the shortlist cuts the lake to at most 8 tables,
  // and the rerank ranks those into the hits.
  const std::vector<cascade::StageStats> stats = search.last_stage_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "shortlist");
  EXPECT_EQ(stats[0].in, lake_->size());
  EXPECT_LE(stats[0].out, 8u);
  EXPECT_EQ(stats[1].stage, "rerank");
  EXPECT_EQ(stats[1].in, stats[0].out);
  EXPECT_EQ(stats[1].out, hits.size());
}

TEST_F(SearchFixture, ScoresAreDescending) {
  OverlapUnionSearch search;
  search.IndexLake(*lake_);
  auto hits = search.SearchTables(benchmark_->queries[0].data, 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(TupleSearchTest, IdenticalTupleRanksFirst) {
  // Lake contains a copy of the query tuple; similarity search must put it
  // on top (the redundancy failure mode DUST addresses).
  Table query("q");
  ASSERT_TRUE(query.AddColumn("Park Name", {Value("River Park")}).ok());
  ASSERT_TRUE(query.AddColumn("Country", {Value("USA")}).ok());

  Table lake1("a");
  ASSERT_TRUE(lake1.AddColumn("Park Name",
                              {Value("River Park"), Value("Cedar Park")}).ok());
  ASSERT_TRUE(lake1.AddColumn("Country", {Value("USA"), Value("Canada")}).ok());

  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kRoberta,
          embed::DefaultConfigFor(embed::ModelFamily::kRoberta, 32))));
  TupleSearch search(encoder);
  search.IndexLake({&lake1});
  auto hits = search.SearchTuplesChecked(query, 2).ValueOrDie();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].ref, (table::TupleRef{0, 0}));  // the exact copy
  EXPECT_GT(hits[0].similarity, hits[1].similarity);
}

TEST(TupleSearchTest, HonorsK) {
  Table lake1("a");
  ASSERT_TRUE(lake1.AddColumn(
      "X", {Value("a"), Value("b"), Value("c"), Value("d")}).ok());
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kBert,
          embed::DefaultConfigFor(embed::ModelFamily::kBert, 16))));
  TupleSearch search(encoder);
  search.IndexLake({&lake1});
  EXPECT_EQ(search.num_indexed(), 4u);
  Table query("q");
  ASSERT_TRUE(query.AddColumn("X", {Value("a")}).ok());
  EXPECT_EQ(search.SearchTuplesChecked(query, 2).ValueOrDie().size(), 2u);
}

TEST_F(SearchFixture, TupleHitListsHoldOnlyTheirKHits) {
  // Fusion scores every distinct candidate of every query row; the list it
  // returns must be sized for the k kept hits, not for those candidates.
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kBert,
          embed::DefaultConfigFor(embed::ModelFamily::kBert, 16))));
  TupleSearch search(encoder);
  search.IndexLake(*lake_);
  const size_t kKs[] = {1, 5, 12};
  std::vector<TupleSearch::TupleQuery> queries;
  for (size_t i = 0; i < benchmark_->queries.size(); ++i) {
    queries.push_back({&benchmark_->queries[i].data, kKs[i % 3]});
  }
  serve::Executor executor(2);
  for (serve::Executor* pool :
       {static_cast<serve::Executor*>(nullptr), &executor}) {
    auto results = search.SearchTuplesBatch(queries, pool);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i].value().size(), queries[i].k);
      EXPECT_LE(results[i].value().capacity(), queries[i].k);
    }
  }
  for (const TupleSearch::TupleQuery& query : queries) {
    auto hits = search.SearchTuplesChecked(*query.table, query.k);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(hits.value().size(), query.k);
    EXPECT_LE(hits.value().capacity(), query.k);
  }
}

// --- lake mutations ---------------------------------------------------------

// The 16-dimensional tuple encoder of the mutation tests below.
std::shared_ptr<embed::TupleEncoder> SmallEncoder() {
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kBert,
          embed::DefaultConfigFor(embed::ModelFamily::kBert, 16))));
}

// Two small disjoint tables plus a TupleSearch over them, shared by the
// mutation tests below.
struct MutableLake {
  Table a{"a"};
  Table b{"b"};
  TupleSearch search;

  MutableLake() : search(SmallEncoder()) {
    EXPECT_TRUE(a.AddColumn("X", {Value("apple"), Value("avocado")}).ok());
    EXPECT_TRUE(b.AddColumn("X", {Value("banana"), Value("blueberry"),
                                  Value("bilberry")}).ok());
    search.IndexLake({&a, &b});
  }

  std::vector<TupleHit> Query(const std::string& cell, size_t k) {
    Table q("q");
    EXPECT_TRUE(q.AddColumn("X", {Value(cell)}).ok());
    return search.SearchTuplesChecked(q, k).ValueOrDie();
  }
};

TEST(TupleMutationTest, RemoveTableDropsItsTuplesAndBumpsHash) {
  MutableLake lake;
  const uint64_t fresh_hash = lake.search.LakeStateHash();
  ASSERT_EQ(lake.search.lake_live_vectors(), 5u);

  ASSERT_TRUE(lake.search.RemoveTable("b").ok());
  EXPECT_NE(lake.search.LakeStateHash(), fresh_hash)
      << "a mutated lake must not reuse the pre-mutation hash";
  EXPECT_EQ(lake.search.lake_live_vectors(), 2u);
  EXPECT_EQ(lake.search.lake_tombstoned_vectors(), 3u);
  EXPECT_EQ(lake.search.catalog().mutations(), 1u);

  // Even a query aimed squarely at the removed table only sees survivors.
  auto hits = lake.Query("banana", 5);
  ASSERT_EQ(hits.size(), 2u);
  for (const TupleHit& h : hits) EXPECT_EQ(h.ref.table_index, 0u);
}

TEST(TupleMutationTest, AddTableServesNewTuples) {
  MutableLake lake;
  const uint64_t fresh_hash = lake.search.LakeStateHash();
  Table c("c");
  ASSERT_TRUE(c.AddColumn("X", {Value("cherry")}).ok());
  ASSERT_TRUE(lake.search.AddTable(c).ok());
  EXPECT_NE(lake.search.LakeStateHash(), fresh_hash);
  EXPECT_EQ(lake.search.lake_live_vectors(), 6u);

  auto hits = lake.Query("cherry", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].ref, (table::TupleRef{2, 0}));
}

TEST(TupleMutationTest, ReAddUnderSameNameGetsAFreshHash) {
  // Remove "b" then add a different "b". If the hash only covered the live
  // table shapes it would collapse back to the original value and the
  // result cache could serve pre-mutation rows; the mutation counter in
  // the hash chain prevents that.
  MutableLake lake;
  const uint64_t fresh_hash = lake.search.LakeStateHash();
  ASSERT_TRUE(lake.search.RemoveTable("b").ok());
  Table b2("b");
  ASSERT_TRUE(b2.AddColumn("X", {Value("banana"), Value("blueberry"),
                                 Value("bilberry")}).ok());
  ASSERT_TRUE(lake.search.AddTable(b2).ok());
  EXPECT_NE(lake.search.LakeStateHash(), fresh_hash);
  EXPECT_EQ(lake.search.catalog().mutations(), 2u);

  // The re-added copy serves from its new slot, not the tombstoned one.
  auto hits = lake.Query("banana", 6);
  ASSERT_EQ(hits.size(), 5u);
  for (const TupleHit& h : hits) EXPECT_NE(h.ref.table_index, 1u);
}

TEST(TupleMutationTest, MutationErrorPaths) {
  MutableLake lake;
  EXPECT_EQ(lake.search.RemoveTable("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(lake.search.RemoveTable("b").ok());
  EXPECT_EQ(lake.search.RemoveTable("b").code(), StatusCode::kNotFound)
      << "removing an already-removed table";
  Table dup("a");
  EXPECT_TRUE(dup.AddColumn("X", {Value("z")}).ok());
  EXPECT_EQ(lake.search.AddTable(dup).code(), StatusCode::kInvalidArgument)
      << "a live table already owns the name";

  TupleSearch unindexed(SmallEncoder());
  EXPECT_EQ(unindexed.RemoveTable("a").code(),
            StatusCode::kFailedPrecondition);
}

TEST(TupleMutationTest, CompactPreservesResultsAndHash) {
  MutableLake lake;
  ASSERT_TRUE(lake.search.RemoveTable("a").ok());
  const uint64_t mutated_hash = lake.search.LakeStateHash();
  auto before = lake.Query("blueberry", 3);
  ASSERT_EQ(before.size(), 3u);

  ASSERT_TRUE(lake.search.CompactIndex().ok());
  EXPECT_EQ(lake.search.lake_tombstoned_vectors(), 0u);
  EXPECT_EQ(lake.search.lake_live_vectors(), 3u);
  // Compaction changes the representation, not the visible lake: cached
  // results stay valid, so the hash must not move.
  EXPECT_EQ(lake.search.LakeStateHash(), mutated_hash);

  auto after = lake.Query("blueberry", 3);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].ref, before[i].ref) << "rank " << i;
    EXPECT_DOUBLE_EQ(after[i].similarity, before[i].similarity)
        << "rank " << i;
  }
}

TEST(TupleMutationTest, LakeStateAndConfigHashesArePinned) {
  // Cache keys carry these hashes, so a refactor of the lake bookkeeping
  // must keep every value. They depend only on config and table shapes,
  // so one constant serves both SIMD backends.
  MutableLake lake;
  EXPECT_EQ(lake.search.LakeStateHash(), 0xab03f134f362f025ull);
  ASSERT_TRUE(lake.search.RemoveTable("b").ok());
  EXPECT_EQ(lake.search.LakeStateHash(), 0x43868f0d8dd1f702ull);
  Table c("c");
  ASSERT_TRUE(c.AddColumn("X", {Value("cherry")}).ok());
  ASSERT_TRUE(lake.search.AddTable(c).ok());
  EXPECT_EQ(lake.search.LakeStateHash(), 0xadb91c9be6566148ull);

  EXPECT_EQ(lake.search.ConfigHash(), 0xfbd21ae3cb6321ebull);
}

// Saves `search`'s lake index to a file and loads it back: the path a
// serving process takes with --save-tuple-index / --load-tuple-index.
std::unique_ptr<index::VectorIndex> SaveAndReload(const TupleSearch& search,
                                                  const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(io::SaveIndex(*search.lake_index(), path).ok());
  return io::LoadIndex(path).ValueOrDie();
}

TEST(TupleMutationTest, UseIndexKeepsTablesRemovedBeforeTheSave) {
  // a(2) b(3) c(2) d(2); b is removed, and the index is saved before any
  // compaction, so it still carries b's tombstones.
  MutableLake lake;
  Table c("c");
  Table d("d");
  ASSERT_TRUE(c.AddColumn("X", {Value("cherry"), Value("coconut")}).ok());
  ASSERT_TRUE(d.AddColumn("X", {Value("date"), Value("durian")}).ok());
  const std::vector<const Table*> tables = {&lake.a, &lake.b, &c, &d};
  lake.search.IndexLake(tables);
  ASSERT_TRUE(lake.search.RemoveTable("b").ok());

  TupleSearch reloaded(SmallEncoder());
  Status used = reloaded.UseIndex(SaveAndReload(lake.search, "b_dead.tidx"),
                                  tables);
  ASSERT_TRUE(used.ok()) << used.ToString();
  EXPECT_EQ(reloaded.RemoveTable("b").code(), StatusCode::kNotFound)
      << "b was removed before the save";

  // Compaction renumbers the tuples; removing c must then tombstone
  // exactly c's two tuples, not d's.
  ASSERT_TRUE(reloaded.CompactIndex().ok());
  ASSERT_EQ(reloaded.lake_live_vectors(), 6u);
  ASSERT_TRUE(reloaded.RemoveTable("c").ok());
  EXPECT_EQ(reloaded.lake_live_vectors(), 4u);
  Table query("q");
  ASSERT_TRUE(query.AddColumn("X", {Value("durian")}).ok());
  std::vector<TupleHit> hits =
      reloaded.SearchTuplesChecked(query, 10).ValueOrDie();
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].ref, (table::TupleRef{3, 1})) << "the exact match";
  for (const TupleHit& hit : hits) {
    EXPECT_TRUE(hit.ref.table_index == 0 || hit.ref.table_index == 3)
        << "hit from removed table " << hit.ref.table_index;
  }

  // b's name is free again, so it can be re-added.
  ASSERT_TRUE(reloaded.AddTable(lake.b).ok());
  EXPECT_EQ(reloaded.lake_live_vectors(), 7u);
}

TEST(TupleMutationTest, UseIndexRejectsAPartlyTombstonedTable) {
  MutableLake lake;
  std::unique_ptr<index::VectorIndex> partly_dead =
      SaveAndReload(lake.search, "b_partly_dead.tidx");
  ASSERT_TRUE(partly_dead->Remove(3));  // b's second tuple only

  ASSERT_TRUE(lake.search.RemoveTable("a").ok());
  const uint64_t hash = lake.search.LakeStateHash();
  const index::VectorIndex* installed = lake.search.lake_index();
  const std::vector<TupleHit> before = lake.Query("banana", 5);

  Status used =
      lake.search.UseIndex(std::move(partly_dead), {&lake.a, &lake.b});
  EXPECT_EQ(used.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(used.message().find("table b"), std::string::npos)
      << used.ToString();
  // A failed call changes nothing.
  EXPECT_EQ(lake.search.LakeStateHash(), hash);
  EXPECT_EQ(lake.search.lake_index(), installed);
  EXPECT_EQ(lake.search.num_indexed(), 5u);
  EXPECT_EQ(lake.search.RemoveTable("a").code(), StatusCode::kNotFound);
  const std::vector<TupleHit> after = lake.Query("banana", 5);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].ref, before[i].ref) << "rank " << i;
  }
}

TEST(TupleMutationTest, UseIndexRejectsAnIndexOfAnotherType) {
  // The lake is configured flat; an hnsw index over the same tuples must
  // not be served under the flat config (ConfigHash, the cache namespace,
  // would still say flat).
  MutableLake lake;
  TupleSearchConfig hnsw_config;
  hnsw_config.index_type = "hnsw";
  TupleSearch hnsw_search(SmallEncoder(), hnsw_config);
  hnsw_search.IndexLake({&lake.a, &lake.b});
  std::unique_ptr<index::VectorIndex> hnsw =
      SaveAndReload(hnsw_search, "hnsw_lake.tidx");
  ASSERT_EQ(hnsw->size(), 5u);

  ASSERT_TRUE(lake.search.RemoveTable("a").ok());
  const uint64_t hash = lake.search.LakeStateHash();
  const index::VectorIndex* installed = lake.search.lake_index();
  const std::vector<TupleHit> before = lake.Query("banana", 5);

  Status used = lake.search.UseIndex(std::move(hnsw), {&lake.a, &lake.b});
  EXPECT_EQ(used.code(), StatusCode::kFailedPrecondition) << used.ToString();
  EXPECT_NE(used.message().find("hnsw"), std::string::npos) << used.ToString();
  EXPECT_NE(used.message().find("flat"), std::string::npos) << used.ToString();
  // A failed call changes nothing.
  EXPECT_EQ(lake.search.LakeStateHash(), hash);
  EXPECT_EQ(lake.search.lake_index(), installed);
  EXPECT_EQ(lake.search.num_indexed(), 5u);
  EXPECT_EQ(lake.search.RemoveTable("a").code(), StatusCode::kNotFound);
  const std::vector<TupleHit> after = lake.Query("banana", 5);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].ref, before[i].ref) << "rank " << i;
  }
}

TEST_F(SearchFixture, EmbeddingRemoveTableExcludesItFromResults) {
  EmbeddingUnionSearch search;
  search.IndexLake(*lake_);
  const size_t victim = benchmark_->unionable[0].front();
  const std::string victim_name = (*lake_)[victim]->name();
  ASSERT_TRUE(search.RemoveTable(victim_name).ok());
  EXPECT_EQ(search.catalog().num_live(), lake_->size() - 1);
  auto hits = search.SearchTables(benchmark_->queries[0].data,
                                  lake_->size());
  EXPECT_EQ(hits.size(), lake_->size() - 1);
  for (const TableHit& h : hits) EXPECT_NE(h.table_index, victim);

  EXPECT_EQ(search.RemoveTable(victim_name).code(), StatusCode::kNotFound);
}

TEST_F(SearchFixture, EmbeddingAddTableBecomesSearchable) {
  EmbeddingUnionSearch search;
  search.IndexLake(*lake_);
  // Re-adding a removed table under its own name is legal and serves from
  // the appended slot.
  const size_t victim = benchmark_->unionable[1].front();
  ASSERT_TRUE(search.RemoveTable((*lake_)[victim]->name()).ok());
  ASSERT_TRUE(search.AddTable(*(*lake_)[victim]).ok());
  EXPECT_EQ(search.catalog().num_live(), lake_->size());
  auto hits = search.SearchTables(benchmark_->queries[1].data, 4);
  bool found_readded = false;
  for (const TableHit& h : hits) {
    EXPECT_NE(h.table_index, victim) << "tombstoned slot must stay dark";
    if (h.table_index == lake_->size()) found_readded = true;
  }
  EXPECT_TRUE(found_readded)
      << "the re-added unionable table should rank in the top 4";

  Table dup((*lake_)[0]->name());
  EXPECT_TRUE(dup.AddColumn("X", {Value("z")}).ok());
  EXPECT_EQ(search.AddTable(dup).code(), StatusCode::kInvalidArgument);
}

TEST_F(SearchFixture, EmbeddingMutationsRejectedAfterSnapshotRestore) {
  const std::string path = ::testing::TempDir() + "embed_mut_state.bin";
  EmbeddingUnionSearch search;
  search.IndexLake(*lake_);
  {
    io::IndexWriter writer(path);
    ASSERT_TRUE(search.SaveState(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EmbeddingUnionSearch restored;
  {
    io::IndexReader reader(path);
    ASSERT_TRUE(restored.LoadState(&reader).ok());
  }
  // Snapshots do not carry table names, so a restored engine cannot
  // resolve mutations; it must refuse rather than guess.
  EXPECT_EQ(restored.RemoveTable((*lake_)[0]->name()).code(),
            StatusCode::kFailedPrecondition);
  Table extra("extra");
  EXPECT_TRUE(extra.AddColumn("X", {Value("z")}).ok());
  EXPECT_EQ(restored.AddTable(extra).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SearchFixture, EmbeddingSaveStateRefusesRemovedTables) {
  // Snapshots carry no removed flags: a saved engine with a removed table
  // would bring the table back on LoadState.
  EmbeddingUnionSearch search;
  search.IndexLake(*lake_);
  ASSERT_TRUE(search.RemoveTable((*lake_)[0]->name()).ok());
  io::IndexWriter writer(::testing::TempDir() + "embed_removed_state.bin");
  EXPECT_EQ(search.SaveState(&writer).code(),
            StatusCode::kFailedPrecondition);
}

// Starmie's table score, computed the long way for every live table and
// fully sorted: the reference the bound-and-verify rerank must equal.
std::vector<TableHit> ExhaustiveTopN(const EmbeddingUnionSearch& search,
                                     const Table& query, size_t lake_size,
                                     const std::vector<size_t>& removed,
                                     size_t n) {
  const std::vector<la::Vec> query_cols = search.encoder().EncodeTable(query);
  std::vector<TableHit> hits;
  for (size_t t = 0; t < lake_size; ++t) {
    if (std::find(removed.begin(), removed.end(), t) != removed.end()) {
      continue;
    }
    const std::vector<la::Vec>& lake_cols = search.ColumnEmbeddings(t);
    double score = 0.0;
    if (!query_cols.empty() && !lake_cols.empty()) {
      std::vector<double> weights;
      for (const la::Vec& q : query_cols) {
        for (const la::Vec& c : lake_cols) {
          const double cosine = la::CosineSimilarity(q, c);
          weights.push_back(std::max(0.0, cosine));
        }
      }
      align::MatchingResult matching = align::MaxWeightBipartiteMatching(
          weights, query_cols.size(), lake_cols.size());
      score = matching.total_weight / static_cast<double>(query_cols.size());
    }
    hits.push_back({t, score});
  }
  std::sort(hits.begin(), hits.end(), [](const TableHit& a, const TableHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_index < b.table_index;
  });
  if (hits.size() > n) hits.resize(n);
  return hits;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// What the rerank must return: every table scored, fully sorted by
// (score descending, id ascending), truncated to n.
std::vector<TableHit> FullSortTopN(const std::vector<size_t>& tables,
                                   const std::vector<double>& scores,
                                   size_t n) {
  std::vector<TableHit> hits;
  for (size_t t : tables) hits.push_back({t, scores[t]});
  std::sort(hits.begin(), hits.end(), [](const TableHit& a, const TableHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_index < b.table_index;
  });
  if (hits.size() > n) hits.resize(n);
  return hits;
}

void ExpectSameHits(const std::vector<TableHit>& hits,
                    const std::vector<TableHit>& expected) {
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(hits[r].table_index, expected[r].table_index) << "rank " << r;
    EXPECT_EQ(Bits(hits[r].score), Bits(expected[r].score)) << "rank " << r;
  }
}

TEST(BoundAndVerifyTopNTest, RanksDescendingAndTruncates) {
  const std::vector<double> scores = {0.2, 0.9, 0.5, 0.9};
  const auto score = [&scores](size_t t) { return scores[t]; };
  // Tables 0..3, bounds = scores; ties break toward the lower id.
  ExpectSameHits(BoundAndVerifyTopN({0, 1, 2, 3}, scores, 3, score),
                 {{1, 0.9}, {3, 0.9}, {2, 0.5}});
}

TEST(BoundAndVerifyTopNTest, BoundAndVerifyMatchesFullSort) {
  Rng rng(20261017);
  for (int trial = 0; trial < 60; ++trial) {
    // Sparse, shuffled table ids over a coarse score grid, so many tables
    // share a score; bounds sit at or above their scores.
    const size_t count = static_cast<size_t>(rng.NextBelow(301));
    const size_t universe = 4 * count + 1;
    std::vector<size_t> tables = rng.SampleWithoutReplacement(universe, count);
    std::vector<double> scores(universe, 0.0);
    std::vector<double> bounds;
    for (size_t t : tables) {
      scores[t] = static_cast<double>(rng.NextBelow(9)) / 8.0;
      const double slack =
          rng.NextBernoulli(0.3) ? 0.0 : 0.5 * rng.NextDouble();
      bounds.push_back(scores[t] + slack);
    }
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{10}, count,
                     count + 5}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " count " +
                   std::to_string(count) + " n " + std::to_string(n));
      size_t scored = 0;
      const std::vector<TableHit> hits =
          BoundAndVerifyTopN(tables, bounds, n, [&](size_t t) {
            ++scored;
            return scores[t];
          });
      ExpectSameHits(hits, FullSortTopN(tables, scores, n));
      if (n == 0) {
        EXPECT_EQ(scored, 0u);
      }
    }
  }
}

TEST(BoundAndVerifyTopNTest, NothingIsScoredForNZero) {
  size_t scored = 0;
  const auto score = [&scored](size_t) {
    ++scored;
    return 0.5;
  };
  // With n == 0 the bounds are not read, so none are needed.
  EXPECT_TRUE(BoundAndVerifyTopN({0, 1, 2}, {}, 0, score).empty());
  EXPECT_EQ(scored, 0u);
}

TEST(BoundAndVerifyTopNTest, TiesAtTheCutAreVerifiedSoLowerIdsWin) {
  // Ids 3, 7 and 9 all score 0.5 and id 9 has the highest bound, so it is
  // verified first. Id 7's bound ties the cut exactly, then reads one ulp
  // low, as a bound summed in another order may; it must be verified
  // either way and displace id 9.
  for (double bound7 : {0.5, std::nextafter(0.5, 0.0)}) {
    const auto score = [](size_t) { return 0.5; };
    const std::vector<TableHit> hits =
        BoundAndVerifyTopN({3, 7, 9}, {0.5, bound7, 0.9}, 2, score);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].table_index, 3u) << "bound " << bound7;
    EXPECT_EQ(hits[1].table_index, 7u) << "bound " << bound7;
  }
}

TEST(BoundAndVerifyTopNTest, ScoresOnlyTheTopNAndTheTiesAtTheCut) {
  Rng rng(7);
  std::vector<size_t> tables(1000);
  std::vector<double> scores(1000);
  for (size_t t = 0; t < tables.size(); ++t) {
    tables[t] = t;
    scores[t] = static_cast<double>(rng.NextBelow(64)) / 64.0;
  }
  const std::vector<TableHit> ranked =
      FullSortTopN(tables, scores, tables.size());
  for (size_t n : {size_t{1}, size_t{10}, size_t{100}}) {
    size_t calls = 0;
    // Tables 0..999, bounds = scores.
    const std::vector<TableHit> hits =
        BoundAndVerifyTopN(tables, scores, n, [&](size_t t) {
          ++calls;
          return scores[t];
        });
    ExpectSameHits(hits, FullSortTopN(tables, scores, n));
    size_t ties_at_cut = 0;
    for (size_t r = n; r < ranked.size(); ++r) {
      if (ranked[r].score == ranked[n - 1].score) ++ties_at_cut;
    }
    EXPECT_LE(calls, n + ties_at_cut) << "n " << n;
  }
}

// After RemoveTable, and after a removed table is added back, a lake
// answers as IndexLake over its live tables does: the same tables (ids
// mapped slot to position) with the same score bits, with and without a
// flat shortlist. The shortlist reads the tombstoned profile index, whose
// distances are the rebuilt index's.
TEST_F(SearchFixture, MutatedLakeAnswersLikeARebuiltOne) {
  for (size_t shortlist : {size_t{0}, size_t{4}}) {
    EmbeddingSearchConfig config;
    config.shortlist = shortlist;
    EmbeddingUnionSearch mutated(config);
    mutated.IndexLake(*lake_);
    std::vector<const Table*> slots = *lake_;  // mutated's table per slot
    const auto expect_rebuilt_hits = [&](const std::string& step) {
      const std::vector<size_t> live = mutated.catalog().LiveTables();
      std::vector<const Table*> live_tables;
      for (size_t slot : live) live_tables.push_back(slots[slot]);
      EmbeddingUnionSearch rebuilt(config);
      rebuilt.IndexLake(live_tables);
      for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
        const Table& query = benchmark_->queries[q].data;
        for (size_t n : {size_t{1}, size_t{3}, live.size()}) {
          SCOPED_TRACE("shortlist " + std::to_string(shortlist) + ", " +
                       step + ", query " + std::to_string(q) + ", n " +
                       std::to_string(n));
          std::vector<TableHit> expected = rebuilt.SearchTables(query, n);
          for (TableHit& hit : expected) {
            hit.table_index = live[hit.table_index];
          }
          ExpectSameHits(mutated.SearchTables(query, n), expected);
        }
      }
    };
    // Remove the first unionable table of queries 0 and 1: the top of
    // each one's shortlist.
    const size_t first = benchmark_->unionable[0].front();
    for (size_t q : {0, 1}) {
      const size_t victim = benchmark_->unionable[q].front();
      ASSERT_TRUE(mutated.RemoveTable((*lake_)[victim]->name()).ok());
    }
    expect_rebuilt_hits("two removed");
    ASSERT_TRUE(mutated.AddTable(*(*lake_)[first]).ok());
    slots.push_back((*lake_)[first]);
    expect_rebuilt_hits("one re-added");
  }
}

// A lake with many near-copies of each query's base table, where the
// rerank's upper bound prunes almost every table: every query and n must
// still return exactly the exhaustive top n, with or without a pool, and
// after a removal.
TEST(EmbeddingSearchWideLakeTest, RerankEqualsExhaustiveMatching) {
  datagen::TusConfig config;
  config.num_queries = 10;
  config.unionable_per_query = 100;
  config.base_rows = 20;
  config.distractors_per_base = 5;
  const datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);
  ASSERT_EQ(lake.size(), 1010u);

  EmbeddingUnionSearch search;
  search.IndexLake(lake);
  serve::Executor executor(2);
  std::vector<size_t> removed;
  // The exhaustive top 50 of each query; its prefixes are the top 1 and 10.
  std::vector<std::vector<TableHit>> expected;
  const auto score_exhaustively = [&] {
    expected.clear();
    for (const auto& query : benchmark.queries) {
      expected.push_back(
          ExhaustiveTopN(search, query.data, lake.size(), removed, 50));
    }
  };
  const auto expect_exhaustive = [&](const std::string& label) {
    for (size_t q = 0; q < benchmark.queries.size(); ++q) {
      for (size_t n : {size_t{1}, size_t{10}, size_t{50}}) {
        const std::vector<TableHit> hits =
            search.SearchTables(benchmark.queries[q].data, n);
        ASSERT_EQ(hits.size(), n) << label;
        for (size_t r = 0; r < n; ++r) {
          EXPECT_EQ(hits[r].table_index, expected[q][r].table_index)
              << label << " query " << q << " n " << n << " rank " << r;
          EXPECT_EQ(Bits(hits[r].score), Bits(expected[q][r].score))
              << label << " query " << q << " n " << n << " rank " << r;
        }
      }
    }
  };
  score_exhaustively();
  expect_exhaustive("inline");
  search.SetExecutor(&executor);
  expect_exhaustive("pooled");
  const size_t top =
      search.SearchTables(benchmark.queries[0].data, 1).front().table_index;
  ASSERT_TRUE(search.RemoveTable(lake[top]->name()).ok());
  removed.push_back(top);
  score_exhaustively();
  expect_exhaustive("pooled, top hit removed");
  search.SetExecutor(nullptr);
  expect_exhaustive("inline, top hit removed");
}

// The 1,010-table lake of RerankEqualsExhaustiveMatching, built once.
const datagen::Benchmark& WideLake() {
  static const datagen::Benchmark benchmark = [] {
    datagen::TusConfig config;
    config.num_queries = 10;
    config.unionable_per_query = 100;
    config.base_rows = 20;
    config.distractors_per_base = 5;
    return datagen::GenerateTus(config);
  }();
  return benchmark;
}

std::vector<const Table*> WideLakeTables() {
  std::vector<const Table*> lake;
  for (const auto& t : WideLake().lake) lake.push_back(&t.data);
  return lake;
}

// SaveState's bytes.
std::string SavedState(const EmbeddingUnionSearch& search,
                       const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  {
    io::IndexWriter writer(path);
    EXPECT_TRUE(search.SaveState(&writer).ok());
    EXPECT_TRUE(writer.Close().ok());
  }
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Every wide-lake query's top 1, 10 and 50 agree in ids and score bits.
void ExpectSameWideLakeHits(const EmbeddingUnionSearch& got,
                            const EmbeddingUnionSearch& want,
                            const std::string& label) {
  for (size_t q = 0; q < WideLake().queries.size(); ++q) {
    const Table& query = WideLake().queries[q].data;
    for (size_t n : {size_t{1}, size_t{10}, size_t{50}}) {
      const std::vector<TableHit> a = got.SearchTables(query, n);
      const std::vector<TableHit> b = want.SearchTables(query, n);
      ASSERT_EQ(a.size(), b.size()) << label << " query " << q << " n " << n;
      for (size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].table_index, b[r].table_index)
            << label << " query " << q << " n " << n << " rank " << r;
        EXPECT_EQ(Bits(a[r].score), Bits(b[r].score))
            << label << " query " << q << " n " << n << " rank " << r;
      }
    }
  }
}

// Executor(0) runs the lake encode and the bound pass on the calling
// thread; a null executor means the default pool. Both give the same state
// and hits, bit for bit, with and without a shortlist (whose candidates are
// not adjacent in the column store).
TEST(EmbeddingSearchWideLakeTest, InlineExecutorMatchesDefaultPool) {
  const std::vector<const Table*> lake = WideLakeTables();
  serve::Executor inline_executor(0);
  for (size_t shortlist : {size_t{0}, size_t{50}}) {
    EmbeddingSearchConfig config;
    config.shortlist = shortlist;
    EmbeddingUnionSearch pooled(config);
    pooled.IndexLake(lake);
    EmbeddingUnionSearch serial(config);
    serial.SetExecutor(&inline_executor);
    serial.IndexLake(lake);
    const std::string label = "shortlist " + std::to_string(shortlist);
    EXPECT_EQ(SavedState(serial, "wide_inline.bin"),
              SavedState(pooled, "wide_pooled.bin"))
        << label;
    ExpectSameWideLakeHits(serial, pooled, label);
  }
}

// Tables appended one by one after IndexLake land where IndexLake over the
// extended lake puts them: the same snapshot bytes and the same hits.
TEST(EmbeddingSearchWideLakeTest, AddTableAfterIndexLakeEqualsIndexLake) {
  // Every 101st table moves to the end, so the appended tables include
  // unionable tables of several queries.
  std::vector<const Table*> head, tail;
  const std::vector<const Table*> tables = WideLakeTables();
  for (size_t t = 0; t < tables.size(); ++t) {
    (t % 101 == 0 ? tail : head).push_back(tables[t]);
  }
  std::vector<const Table*> extended = head;
  extended.insert(extended.end(), tail.begin(), tail.end());
  for (size_t shortlist : {size_t{0}, size_t{50}}) {
    EmbeddingSearchConfig config;
    config.shortlist = shortlist;
    EmbeddingUnionSearch grown(config);
    grown.IndexLake(head);
    for (const Table* t : tail) ASSERT_TRUE(grown.AddTable(*t).ok());
    EmbeddingUnionSearch whole(config);
    whole.IndexLake(extended);
    const std::string label = "shortlist " + std::to_string(shortlist);
    EXPECT_EQ(SavedState(grown, "wide_grown.bin"),
              SavedState(whole, "wide_whole.bin"))
        << label;
    ExpectSameWideLakeHits(grown, whole, label);
  }
}

// SaveState -> LoadState -> SaveState reproduces the snapshot byte for
// byte, and the restored engine serves the same hits.
TEST(EmbeddingSearchWideLakeTest, SaveLoadSaveIsByteIdentical) {
  const std::vector<const Table*> lake = WideLakeTables();
  for (size_t shortlist : {size_t{0}, size_t{50}}) {
    EmbeddingSearchConfig config;
    config.shortlist = shortlist;
    config.index_type = shortlist > 0 ? "hnsw" : "flat";
    EmbeddingUnionSearch search(config);
    search.IndexLake(lake);
    const std::string saved = SavedState(search, "wide_saved.bin");
    EmbeddingUnionSearch restored(config);
    {
      io::IndexReader reader(::testing::TempDir() + "wide_saved.bin");
      ASSERT_TRUE(restored.LoadState(&reader).ok());
    }
    const std::string label = "shortlist " + std::to_string(shortlist);
    EXPECT_EQ(SavedState(restored, "wide_resaved.bin"), saved) << label;
    ExpectSameWideLakeHits(restored, search, label);
  }
}

// The encoder gives every column norm 1, even an unnamed all-null one, so
// only a snapshot can carry a zero column. A hand-written state with zero
// columns loads, and its hits equal the exhaustive matching's, whose
// weights come from la::CosineSimilarity.
TEST_F(SearchFixture, HandWrittenStateWithZeroColumnsMatchesExhaustive) {
  EmbeddingUnionSearch source;
  source.IndexLake(*lake_);
  const size_t dim = source.encoder().dim();
  std::vector<std::vector<la::Vec>> columns;
  for (size_t t = 0; t < lake_->size(); ++t) {
    columns.push_back(source.ColumnEmbeddings(t));
  }
  // Table 0 gets a zero first column, table 1 keeps only a zero column,
  // and table 2 has no columns at all.
  columns[0][0].assign(dim, 0.0f);
  columns[1] = {la::Vec(dim, 0.0f)};
  columns[2].clear();
  const std::string path = ::testing::TempDir() + "embed_zero_state.bin";
  {
    io::IndexWriter writer(path);
    writer.WriteU64(columns.size());
    for (const std::vector<la::Vec>& cols : columns) writer.WriteVecs(cols);
    writer.WriteVecs(std::vector<la::Vec>(columns.size(), la::Vec(dim, 0.0f)));
    writer.WriteU8(0);  // no shortlist index
    writer.WriteU8(0);  // no retrieval-cascade signals
    ASSERT_TRUE(writer.Close().ok());
  }
  EmbeddingUnionSearch restored;
  {
    io::IndexReader reader(path);
    ASSERT_TRUE(restored.LoadState(&reader).ok());
  }
  ASSERT_EQ(restored.ColumnEmbeddings(1).size(), 1u);
  EXPECT_TRUE(restored.ColumnEmbeddings(2).empty());
  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    const Table& query = benchmark_->queries[q].data;
    for (size_t n : {size_t{1}, size_t{5}, lake_->size()}) {
      const std::vector<TableHit> hits = restored.SearchTables(query, n);
      const std::vector<TableHit> expected =
          ExhaustiveTopN(restored, query, lake_->size(), {}, n);
      ASSERT_EQ(hits.size(), expected.size()) << "query " << q << " n " << n;
      for (size_t r = 0; r < hits.size(); ++r) {
        EXPECT_EQ(hits[r].table_index, expected[r].table_index)
            << "query " << q << " n " << n << " rank " << r;
        EXPECT_EQ(Bits(hits[r].score), Bits(expected[r].score))
            << "query " << q << " n " << n << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace dust::search

// Unit tests for the two steps of table search in
// src/search/cascade/stages.h: the vector shortlist's delegation and
// exact-survivor paths, and the bound-and-verify rerank's ordering, ties
// and pruning. The bound pass that feeds the rerank runs on an executor
// inside EmbeddingUnionSearch; search_test checks it pooled and inline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "index/vector_index.h"
#include "search/cascade/stages.h"
#include "util/rng.h"

namespace dust::search::cascade {
namespace {

TEST(VectorShortlistStageTest, DelegatesToIndexWhenSetUntouched) {
  std::vector<la::Vec> profiles = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {0.9f, 0.1f}};
  auto index = index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  index->AddAll(profiles);
  VectorShortlistStage stage(index.get(), &profiles, 2);
  la::Vec query = {1.0f, 0.0f};
  CandidateSet set;
  set.query_profile = &query;
  set.tables = {0, 1, 2};  // every profile a candidate -> the index call
  ASSERT_TRUE(stage.Run(set).ok());
  // Flat cosine: table 0 is an exact match, table 2 is close.
  EXPECT_EQ(set.tables, (std::vector<size_t>{0, 2}));
}

TEST(VectorShortlistStageTest, ScoresPrunedSurvivorsExactly) {
  std::vector<la::Vec> profiles = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {0.9f, 0.1f}};
  std::unique_ptr<index::VectorIndex> index =
      index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  for (const la::Vec& p : profiles) index->Add(p);
  VectorShortlistStage stage(index.get(), &profiles, 1);
  la::Vec query = {1.0f, 0.0f};
  CandidateSet set;
  set.query_profile = &query;
  set.tables = {1, 2};  // narrowed: table 0 (the best) was removed
  ASSERT_TRUE(stage.Run(set).ok());
  // The stage must rank only the survivors, never resurrect table 0.
  EXPECT_EQ(set.tables, (std::vector<size_t>{2}));
}

TEST(VectorShortlistStageTest, PassThroughWithoutIndexOrShortlist) {
  std::vector<la::Vec> profiles;
  VectorShortlistStage no_index(nullptr, &profiles, 4);
  CandidateSet set;
  set.tables = {0, 1};
  ASSERT_TRUE(no_index.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 2u);

  std::unique_ptr<index::VectorIndex> index =
      index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  VectorShortlistStage zero_shortlist(index.get(), &profiles, 0);
  ASSERT_TRUE(zero_shortlist.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 2u);
}

TEST(ExactRerankStageTest, RanksDescendingAndTruncates) {
  const std::vector<double> scores = {0.2, 0.9, 0.5, 0.9};
  const auto score = [&scores](size_t t) { return scores[t]; };
  ExactRerankStage stage(score, scores);  // tables 0..3: bounds = scores
  CandidateSet set;
  set.n = 3;
  set.tables = {0, 1, 2, 3};
  ASSERT_TRUE(stage.Run(set).ok());
  ASSERT_EQ(set.hits.size(), 3u);
  // Ties break toward the lower table id (1 before 3).
  EXPECT_EQ(set.hits[0].table_index, 1u);
  EXPECT_EQ(set.hits[1].table_index, 3u);
  EXPECT_EQ(set.hits[2].table_index, 2u);
  EXPECT_DOUBLE_EQ(set.hits[0].score, 0.9);
  EXPECT_EQ(set.tables, (std::vector<size_t>{1, 3, 2}));
}

TEST(ExactRerankStageTest, BoundsMustMatchTheCandidates) {
  const auto score = [](size_t) { return 0.5; };
  CandidateSet set;
  set.n = 2;
  set.tables = {0, 1, 2};
  EXPECT_EQ(ExactRerankStage(score, {0.5, 0.5}).Run(set).code(),
            StatusCode::kInternal);
  // With n == 0 the bounds are not read, so none are needed.
  set.n = 0;
  ASSERT_TRUE(ExactRerankStage(score, {}).Run(set).ok());
  EXPECT_TRUE(set.hits.empty());
  EXPECT_TRUE(set.tables.empty());
}

/// by_table[t] for each candidate t, in candidate order: the bounds vector
/// the rerank takes.
std::vector<double> AlignedWith(const std::vector<size_t>& tables,
                                const std::vector<double>& by_table) {
  std::vector<double> aligned;
  for (size_t t : tables) aligned.push_back(by_table[t]);
  return aligned;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// What the rerank must return: every candidate scored, fully sorted by
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

void ExpectSameHits(const CandidateSet& set,
                    const std::vector<TableHit>& expected) {
  ASSERT_EQ(set.hits.size(), expected.size());
  ASSERT_EQ(set.tables.size(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(set.hits[r].table_index, expected[r].table_index) << "rank " << r;
    EXPECT_EQ(Bits(set.hits[r].score), Bits(expected[r].score)) << "rank " << r;
    EXPECT_EQ(set.tables[r], expected[r].table_index) << "rank " << r;
  }
}

TEST(ExactRerankStageTest, BoundAndVerifyMatchesFullSort) {
  Rng rng(20261017);
  for (int trial = 0; trial < 60; ++trial) {
    // Sparse, shuffled candidate ids over a coarse score grid, so many
    // candidates share a score; bounds sit at or above their scores.
    const size_t count = static_cast<size_t>(rng.NextBelow(301));
    const size_t universe = 4 * count + 1;
    std::vector<size_t> tables = rng.SampleWithoutReplacement(universe, count);
    std::vector<double> scores(universe, 0.0);
    std::vector<double> bounds(universe, 0.0);
    for (size_t t : tables) {
      scores[t] = static_cast<double>(rng.NextBelow(9)) / 8.0;
      const double slack =
          rng.NextBernoulli(0.3) ? 0.0 : 0.5 * rng.NextDouble();
      bounds[t] = scores[t] + slack;
    }
    const size_t sizes[] = {0, 1, 3, 10, count, count + 5};
    for (size_t n : sizes) {
      size_t scored = 0;
      ExactRerankStage stage(
          [&](size_t t) {
            ++scored;
            return scores[t];
          },
          AlignedWith(tables, bounds));
      CandidateSet set;
      set.n = n;
      set.tables = tables;
      ASSERT_TRUE(stage.Run(set).ok());
      SCOPED_TRACE("trial " + std::to_string(trial) + " count " +
                   std::to_string(count) + " n " + std::to_string(n));
      ExpectSameHits(set, FullSortTopN(tables, scores, n));
      if (n == 0) {
        EXPECT_EQ(scored, 0u);
      }
    }
  }
}

TEST(ExactRerankStageTest, TiesAtTheCutAreVerifiedSoLowerIdsWin) {
  // Ids 3, 7 and 9 all score 0.5 and id 9 has the highest bound, so it is
  // verified first. Id 7's bound ties the cut exactly, then reads one ulp
  // low, as a bound summed in another order may; it must be verified
  // either way and displace id 9.
  for (double bound7 : {0.5, std::nextafter(0.5, 0.0)}) {
    const auto score = [](size_t) { return 0.5; };
    ExactRerankStage stage(score, {0.5, bound7, 0.9});  // ids 3, 7, 9
    CandidateSet set;
    set.n = 2;
    set.tables = {3, 7, 9};
    ASSERT_TRUE(stage.Run(set).ok());
    EXPECT_EQ(set.tables, (std::vector<size_t>{3, 7})) << "bound " << bound7;
  }
}

TEST(ExactRerankStageTest, ScoresOnlyTheTopNAndTheTiesAtTheCut) {
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
    ExactRerankStage stage(
        [&](size_t t) {
          ++calls;
          return scores[t];
        },
        scores);  // tables 0..999: bounds = scores
    CandidateSet set;
    set.n = n;
    set.tables = tables;
    ASSERT_TRUE(stage.Run(set).ok());
    ExpectSameHits(set, FullSortTopN(tables, scores, n));
    size_t ties_at_cut = 0;
    for (size_t r = n; r < ranked.size(); ++r) {
      if (ranked[r].score == ranked[n - 1].score) ++ties_at_cut;
    }
    EXPECT_LE(calls, n + ties_at_cut) << "n " << n;
  }
}

}  // namespace
}  // namespace dust::search::cascade

// Unit tests for src/search/cascade: stage semantics (prefilter admission
// rule, prescreen top-k, shortlist parity, rerank ordering), the
// CascadeSearch driver's accounting and metrics, and the TupleSearch
// cascade's flat-parity and pruning behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "embed/tuple_encoder.h"
#include "index/vector_index.h"
#include "search/cascade/cascade_search.h"
#include "search/cascade/stages.h"
#include "search/tuple_search.h"
#include "serve/executor.h"
#include "serve/metrics.h"
#include "table/table.h"
#include "util/rng.h"

namespace dust::search::cascade {
namespace {

using table::Table;
using table::Value;

Table TextTable(const std::string& name) {
  Table t(name);
  EXPECT_TRUE(t.AddColumn("name", {Value("ada"), Value("grace")}).ok());
  EXPECT_TRUE(t.AddColumn("city", {Value("london"), Value("nyc")}).ok());
  return t;
}

Table NumericTable(const std::string& name) {
  Table t(name);
  EXPECT_TRUE(t.AddColumn("x", {Value("1.0"), Value("2.0")}).ok());
  EXPECT_TRUE(t.AddColumn("y", {Value("3.0"), Value("4.0")}).ok());
  return t;
}

TEST(SignatureOfTest, CountsNumericColumns) {
  Table t("mixed");
  ASSERT_TRUE(t.AddColumn("name", {Value("ada"), Value("grace")}).ok());
  ASSERT_TRUE(t.AddColumn("score", {Value("1.5"), Value("2.5")}).ok());
  TableSignature sig = SignatureOf(t);
  EXPECT_EQ(sig.columns, 2u);
  EXPECT_EQ(sig.numeric_columns, 1u);
  EXPECT_EQ(SignatureOf(Table("empty")).columns, 0u);
}

TEST(PrefilterCompatibleTest, AdmissionRule) {
  CascadeConfig config;  // min_type_overlap 0.5, max_column_ratio 4.0
  const TableSignature two_text{2, 0};
  const TableSignature two_numeric{2, 2};
  const TableSignature mixed{2, 1};
  const TableSignature empty{0, 0};
  // Same shape always passes; disjoint types never do.
  EXPECT_TRUE(PrefilterCompatible(two_text, two_text, config));
  EXPECT_FALSE(PrefilterCompatible(two_text, two_numeric, config));
  // One of two columns type-covered is exactly the 0.5 threshold.
  EXPECT_TRUE(PrefilterCompatible(two_text, mixed, config));
  // A column-less query judges nothing; a column-less candidate never
  // matches a real query.
  EXPECT_TRUE(PrefilterCompatible(empty, two_numeric, config));
  EXPECT_FALSE(PrefilterCompatible(two_text, empty, config));
  // Width cap: a 9-column candidate against a 2-column query exceeds 4x.
  EXPECT_FALSE(PrefilterCompatible(two_text, TableSignature{9, 0}, config));
  EXPECT_TRUE(PrefilterCompatible(two_text, TableSignature{8, 0}, config));
}

TEST(TypePrefilterStageTest, PrunesIncompatibleTables) {
  CascadeConfig config;
  std::vector<TableSignature> signatures = {
      {2, 0},  // text like the query -> keep
      {2, 2},  // all numeric -> prune
      {2, 1},  // half covered -> keep
  };
  TypePrefilterStage stage(&signatures, &config);
  CandidateSet set;
  set.query_signature = {2, 0};
  set.tables = {0, 1, 2};
  ASSERT_TRUE(stage.Run(set).ok());
  EXPECT_EQ(set.tables, (std::vector<size_t>{0, 2}));
}

TEST(TypePrefilterStageTest, OutOfRangeIdIsInternalError) {
  CascadeConfig config;
  std::vector<TableSignature> signatures = {{2, 0}};
  TypePrefilterStage stage(&signatures, &config);
  CandidateSet set;
  set.query_signature = {2, 0};
  set.tables = {0, 7};
  Status status = stage.Run(set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(MinHashPrescreenStageTest, KeepsMostSimilarInAscendingIdOrder) {
  CascadeConfig config;
  config.prescreen_keep = 2;
  std::vector<MinHashSketch> sketches = {
      MinHashSketch({"x", "y", "z"}, 128),          // disjoint from query
      MinHashSketch({"a", "b", "c", "d"}, 128),     // identical to query
      MinHashSketch({"a", "b", "q", "r"}, 128),     // half overlap
  };
  MinHashSketch query({"a", "b", "c", "d"}, 128);
  MinHashPrescreenStage stage(&sketches, &config);
  CandidateSet set;
  set.query_sketch = &query;
  set.tables = {0, 1, 2};
  ASSERT_TRUE(stage.Run(set).ok());
  // Tables 1 and 2 overlap the query, table 0 does not; survivors come
  // back in ascending-id order like an untouched candidate set.
  EXPECT_EQ(set.tables, (std::vector<size_t>{1, 2}));
}

TEST(MinHashPrescreenStageTest, PassThroughAtOrUnderCap) {
  CascadeConfig config;
  config.prescreen_keep = 8;
  std::vector<MinHashSketch> sketches;
  MinHashPrescreenStage stage(&sketches, &config);
  CandidateSet set;
  set.tables = {0, 1, 2};  // already under the cap: no sketches needed
  ASSERT_TRUE(stage.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 3u);

  config.prescreen_keep = 0;  // 0 disables the cut entirely
  set.tables = {0, 1, 2};
  ASSERT_TRUE(stage.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 3u);
}

TEST(MinHashPrescreenStageTest, MissingQuerySketchIsInternalError) {
  CascadeConfig config;
  config.prescreen_keep = 1;
  std::vector<MinHashSketch> sketches = {MinHashSketch({"a"}, 32),
                                         MinHashSketch({"b"}, 32)};
  MinHashPrescreenStage stage(&sketches, &config);
  CandidateSet set;
  set.tables = {0, 1};  // over the cap, so the sketch is actually needed
  Status status = stage.Run(set);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(VectorShortlistStageTest, DelegatesToIndexWhenSetUntouched) {
  std::vector<la::Vec> profiles = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {0.9f, 0.1f}};
  auto index =
      index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  index->AddAll(profiles);
  std::unique_ptr<index::VectorIndex> slot = std::move(index);
  VectorShortlistStage stage(&slot, &profiles, 2);
  la::Vec query = {1.0f, 0.0f};
  CandidateSet set;
  set.query_profile = &query;
  set.tables = {0, 1, 2};  // full set -> the flat path's index call
  ASSERT_TRUE(stage.Run(set).ok());
  // Flat cosine: table 0 is an exact match, table 2 is close.
  EXPECT_EQ(set.tables, (std::vector<size_t>{0, 2}));
}

TEST(VectorShortlistStageTest, ScoresPrunedSurvivorsExactly) {
  std::vector<la::Vec> profiles = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {0.9f, 0.1f}};
  std::unique_ptr<index::VectorIndex> slot =
      index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  for (const la::Vec& p : profiles) slot->Add(p);
  VectorShortlistStage stage(&slot, &profiles, 1);
  la::Vec query = {1.0f, 0.0f};
  CandidateSet set;
  set.query_profile = &query;
  set.tables = {1, 2};  // pre-pruned: table 0 (the best) already rejected
  ASSERT_TRUE(stage.Run(set).ok());
  // The stage must rank only the survivors, never resurrect table 0.
  EXPECT_EQ(set.tables, (std::vector<size_t>{2}));
}

TEST(VectorShortlistStageTest, PassThroughWithoutIndexOrShortlist) {
  std::vector<la::Vec> profiles;
  std::unique_ptr<index::VectorIndex> empty_slot;
  VectorShortlistStage no_index(&empty_slot, &profiles, 4);
  CandidateSet set;
  set.tables = {0, 1};
  ASSERT_TRUE(no_index.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 2u);

  std::unique_ptr<index::VectorIndex> slot =
      index::MakeVectorIndex("flat", 2, la::Metric::kCosine);
  VectorShortlistStage zero_shortlist(&slot, &profiles, 0);
  ASSERT_TRUE(zero_shortlist.Run(set).ok());
  EXPECT_EQ(set.tables.size(), 2u);
}

TEST(ExactRerankStageTest, RanksDescendingAndTruncates) {
  const std::vector<double> scores = {0.2, 0.9, 0.5, 0.9};
  const auto score = [&scores](size_t t) { return scores[t]; };
  ExactRerankStage stage(score, score);
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
  serve::Executor executor(4);
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
    serve::Executor* const pools[] = {nullptr, &executor};
    for (size_t n : sizes) {
      for (serve::Executor* pool : pools) {
        std::atomic<size_t> scored{0};
        ExactRerankStage stage(
            [&](size_t t) {
              ++scored;
              return scores[t];
            },
            [&](size_t t) { return bounds[t]; });
        CandidateSet set;
        set.n = n;
        set.executor = pool;
        set.tables = tables;
        ASSERT_TRUE(stage.Run(set).ok());
        SCOPED_TRACE("trial " + std::to_string(trial) + " count " +
                     std::to_string(count) + " n " + std::to_string(n) +
                     (pool != nullptr ? " pooled" : " inline"));
        ExpectSameHits(set, FullSortTopN(tables, scores, n));
        if (n == 0) {
          EXPECT_EQ(scored.load(), 0u);
        }
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
    ExactRerankStage stage(score, [bound7](size_t t) {
      return t == 9 ? 0.9 : t == 7 ? bound7 : 0.5;
    });
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
        [&scores](size_t t) { return scores[t]; });
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

TEST(CascadeSearchTest, UndeclaredStageIsInternalError) {
  CascadeSearch cascade({"prefilter"});
  const auto zero = [](size_t) { return 0.0; };
  ExactRerankStage rerank(zero, zero);
  CandidateSet set;
  std::vector<const CandidateStage*> stages = {&rerank};
  Status status = cascade.Run(stages, set, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(CascadeSearchTest, AccountsStatsAndExportsMetrics) {
  CascadeSearch cascade({"prefilter", "rerank"});
  CascadeConfig config;
  std::vector<TableSignature> signatures = {{2, 0}, {2, 2}, {2, 0}};
  TypePrefilterStage prefilter(&signatures, &config);
  const auto id_score = [](size_t t) { return static_cast<double>(t); };
  ExactRerankStage rerank(id_score, id_score);

  CandidateSet set;
  set.n = 2;
  set.query_signature = {2, 0};
  set.tables = {0, 1, 2};
  std::vector<StageStats> stats;
  std::vector<const CandidateStage*> stages = {&prefilter, &rerank};
  ASSERT_TRUE(cascade.Run(stages, set, &stats).ok());

  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "prefilter");
  EXPECT_EQ(stats[0].in, 3u);
  EXPECT_EQ(stats[0].out, 2u);
  EXPECT_GE(stats[0].micros, 0.0);
  EXPECT_EQ(stats[1].stage, "rerank");
  EXPECT_EQ(stats[1].in, 2u);
  EXPECT_EQ(stats[1].out, 2u);

  const std::string summary = cascade.StatsSummary();
  EXPECT_NE(summary.find("stage prefilter"), std::string::npos) << summary;
  EXPECT_NE(summary.find("runs=1 in=3 out=2"), std::string::npos) << summary;

  serve::Metrics metrics;
  cascade.RegisterMetrics(&metrics);
  const std::string text = metrics.RenderText();
  EXPECT_NE(text.find("dust_cascade_stage_prefilter_runs_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dust_cascade_stage_prefilter_in_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("dust_cascade_stage_rerank_out_total 2"),
            std::string::npos);
}

// --- TupleSearch cascade integration ---------------------------------------

std::shared_ptr<embed::TupleEncoder> TestEncoder() {
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(embed::MakeEmbedder(
          embed::ModelFamily::kRoberta,
          embed::DefaultConfigFor(embed::ModelFamily::kRoberta, 32))));
}

TEST(TupleSearchCascadeTest, DisabledStagesAreBitIdenticalToFlat) {
  Table a = TextTable("a");
  Table b = TextTable("b");
  Table nums = NumericTable("nums");
  const std::vector<const Table*> lake = {&a, &b, &nums};

  TupleSearch flat(TestEncoder());
  flat.IndexLake(lake);

  TupleSearchConfig config;
  config.cascade.enabled = true;
  config.cascade.prefilter = false;
  config.cascade.prescreen = false;
  TupleSearch degenerate(TestEncoder(), config);
  degenerate.IndexLake(lake);

  Table query("q");
  ASSERT_TRUE(query.AddColumn("name", {Value("ada")}).ok());
  ASSERT_TRUE(query.AddColumn("city", {Value("london")}).ok());
  const auto expected = flat.SearchTuplesChecked(query, 4).ValueOrDie();
  const auto actual = degenerate.SearchTuplesChecked(query, 4).ValueOrDie();
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].ref, actual[i].ref);
    EXPECT_EQ(expected[i].similarity, actual[i].similarity);  // exact
  }
}

TEST(TupleSearchCascadeTest, PrefilterRestrictsHitsToCompatibleTables) {
  Table a = TextTable("a");
  Table b = TextTable("b");
  Table nums = NumericTable("nums");
  const std::vector<const Table*> lake = {&a, &b, &nums};

  TupleSearchConfig config;
  config.cascade.enabled = true;
  TupleSearch search(TestEncoder(), config);
  search.IndexLake(lake);

  Table query("q");
  ASSERT_TRUE(query.AddColumn("name", {Value("ada")}).ok());
  ASSERT_TRUE(query.AddColumn("city", {Value("london")}).ok());
  const auto hits = search.SearchTuplesChecked(query, 6).ValueOrDie();
  ASSERT_FALSE(hits.empty());
  for (const TupleHit& hit : hits) {
    EXPECT_NE(hit.ref.table_index, 2u)
        << "numeric table survived the type prefilter";
  }
  const std::string summary = search.CascadeStatsSummary();
  EXPECT_NE(summary.find("stage prefilter"), std::string::npos) << summary;
}

TEST(TupleSearchCascadeTest, ConfigHashCoversCascadeKnobs) {
  TupleSearchConfig flat_config;
  TupleSearchConfig cascade_config;
  cascade_config.cascade.enabled = true;
  auto encoder = TestEncoder();
  TupleSearch flat(encoder, flat_config);
  TupleSearch cascaded(encoder, cascade_config);
  EXPECT_NE(flat.ConfigHash(), cascaded.ConfigHash());

  TupleSearchConfig retuned = cascade_config;
  retuned.cascade.prescreen_keep = 16;
  TupleSearch retuned_search(encoder, retuned);
  EXPECT_NE(cascaded.ConfigHash(), retuned_search.ConfigHash());
}

}  // namespace
}  // namespace dust::search::cascade

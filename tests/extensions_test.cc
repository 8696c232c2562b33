// Tests for the extension components: the pipeline's weak-table filter,
// CSV file round trips (the CLI path), and cross-metric behavioural
// invariants.
#include <gtest/gtest.h>

#include <set>

#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "diversify/dust_diversifier.h"
#include "diversify/metrics.h"
#include "embed/tuple_encoder.h"
#include "table/csv.h"
#include "util/rng.h"

namespace dust {
namespace {

using la::Metric;
using la::Vec;

std::vector<Vec> RandomUnitPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> out;
  for (size_t i = 0; i < n; ++i) {
    Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(v);
  }
  return out;
}

// The paper's Sec. 6.4.1 claim: relative performance is stable across
// distance functions. We test the invariant that matters downstream: DUST
// beats a min-diversity floor under every metric.
class MetricSweepTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricSweepTest, DustProducesNonDegenerateSelections) {
  Metric metric = GetParam();
  std::vector<Vec> query = RandomUnitPoints(5, 8, 6);
  std::vector<Vec> lake = RandomUnitPoints(80, 8, 7);
  // Add exact copies of query tuples (redundancy) that DUST must avoid.
  for (const Vec& q : query) lake.push_back(q);
  diversify::DiversifyInput input;
  input.query = &query;
  input.lake = &lake;
  input.metric = metric;
  diversify::DustDiversifier dust;
  std::vector<size_t> selected = dust.SelectDiverse(input, 10);
  std::vector<Vec> points;
  for (size_t i : selected) points.push_back(lake[i]);
  EXPECT_GT(diversify::MinDiversity(query, points, metric), 0.0);
  // No exact query copy may be selected (its min distance is 0).
  for (size_t i : selected) EXPECT_LT(i, 80u);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricSweepTest,
                         ::testing::Values(Metric::kCosine, Metric::kEuclidean,
                                           Metric::kManhattan));

TEST(CsvFileTest, WriteReadRoundTrip) {
  table::Table t("roundtrip");
  ASSERT_TRUE(t.AddColumn("Park Name",
                          {table::Value("River Park"),
                           table::Value("Brandon, MN park")}).ok());
  ASSERT_TRUE(t.AddColumn("Note",
                          {table::Value::Null(),
                           table::Value("says \"hi\"")}).ok());
  std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(table::WriteCsvFile(t, path).ok());
  auto back = table::ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().name(), "roundtrip");
  EXPECT_EQ(back.value().num_rows(), 2u);
  EXPECT_TRUE(back.value().at(0, 1).is_null());
  EXPECT_EQ(back.value().at(1, 1).text(), "says \"hi\"");
}

TEST(CsvFileTest, MissingFileErrors) {
  EXPECT_FALSE(table::ReadCsvFile("/nonexistent/nope.csv").ok());
}

TEST(PipelineFilterTest, WeakTablesDropped) {
  // A lake with one strongly unionable table and one unrelated table: the
  // score filter must keep only the former.
  datagen::TusConfig config;
  config.num_queries = 2;
  config.unionable_per_query = 2;
  config.distractors_per_base = 1;
  config.base_rows = 50;
  config.seed = 777;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);

  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 48;
  encoder_config.noise_level = 0.0f;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));

  core::PipelineConfig strict;
  strict.num_tables = lake.size();
  strict.min_table_score = 0.35;
  core::DustPipeline pipeline(strict, encoder);
  pipeline.IndexLake(lake);
  auto result = pipeline.Run(benchmark.queries[0].data, 5);
  ASSERT_TRUE(result.ok());
  std::set<size_t> truth(benchmark.unionable[0].begin(),
                         benchmark.unionable[0].end());
  for (const search::TableHit& hit : result.value().tables) {
    EXPECT_TRUE(truth.count(hit.table_index))
        << "weak table " << hit.table_index << " not filtered";
  }
}

TEST(PipelineFilterTest, TopTableAlwaysKept) {
  datagen::TusConfig config;
  config.num_queries = 1;
  config.unionable_per_query = 2;
  config.base_rows = 40;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 32;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));
  core::PipelineConfig config2;
  config2.min_table_score = 1e9;  // absurd threshold
  core::DustPipeline pipeline(config2, encoder);
  pipeline.IndexLake(lake);
  auto result = pipeline.Run(benchmark.queries[0].data, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().tables.size(), 1u);
}

TEST(PipelineDeterminismTest, SameSeedSameOutput) {
  datagen::TusConfig config;
  config.num_queries = 1;
  config.unionable_per_query = 3;
  config.base_rows = 40;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 32;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));
  core::DustPipeline a(core::PipelineConfig{}, encoder);
  core::DustPipeline b(core::PipelineConfig{}, encoder);
  a.IndexLake(lake);
  b.IndexLake(lake);
  auto ra = a.Run(benchmark.queries[0].data, 5);
  auto rb = b.Run(benchmark.queries[0].data, 5);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra.value().provenance.size(), rb.value().provenance.size());
  for (size_t i = 0; i < ra.value().provenance.size(); ++i) {
    EXPECT_EQ(ra.value().provenance[i], rb.value().provenance[i]);
  }
}

}  // namespace
}  // namespace dust

// Integration tests: DustPipeline (Algorithm 1) end to end on generated
// benchmarks, including the diversity-vs-similarity headline behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <unordered_set>

#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "diversify/metrics.h"
#include "embed/tuple_encoder.h"
#include "io/index_io.h"
#include "la/distance.h"
#include "la/simd/kernels.h"
#include "nn/dust_model.h"
#include "search/tuple_search.h"
#include "serve/executor.h"
#include "table/union.h"

namespace dust::core {
namespace {

using table::Table;

std::shared_ptr<embed::TupleEncoder> TestEncoder() {
  // A noiseless pretrained encoder stands in for the trained DustModel in
  // integration tests (fast, deterministic; the trained model is exercised
  // in nn_test and the Fig. 6 bench).
  embed::EmbedderConfig config;
  config.dim = 48;
  config.noise_level = 0.0f;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, config)));
}

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::TusConfig config;
    config.num_queries = 3;
    config.unionable_per_query = 5;
    config.distractors_per_base = 1;
    config.base_rows = 80;
    config.seed = 99;
    benchmark_ = new datagen::Benchmark(datagen::GenerateTus(config));
    lake_ = new std::vector<const Table*>();
    for (const auto& t : benchmark_->lake) lake_->push_back(&t.data);

    PipelineConfig pipeline_config;
    pipeline_config.num_tables = 5;
    pipeline_ = new DustPipeline(pipeline_config, TestEncoder());
    pipeline_->IndexLake(*lake_);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete benchmark_;
    delete lake_;
  }
  static datagen::Benchmark* benchmark_;
  static std::vector<const Table*>* lake_;
  static DustPipeline* pipeline_;
};

datagen::Benchmark* PipelineFixture::benchmark_ = nullptr;
std::vector<const Table*>* PipelineFixture::lake_ = nullptr;
DustPipeline* PipelineFixture::pipeline_ = nullptr;

TEST_F(PipelineFixture, RunsEndToEnd) {
  const Table& query = benchmark_->queries[0].data;
  auto result = pipeline_->Run(query, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PipelineResult& r = result.value();
  EXPECT_EQ(r.output.num_rows(), 10u);
  EXPECT_EQ(r.output.ColumnNames(), query.ColumnNames());
  EXPECT_EQ(r.provenance.size(), 10u);
  EXPECT_FALSE(r.tables.empty());
  EXPECT_GE(r.timings.search_seconds, 0.0);
}

TEST_F(PipelineFixture, ProvenancePointsIntoLake) {
  auto result = pipeline_->Run(benchmark_->queries[1].data, 8);
  ASSERT_TRUE(result.ok());
  for (const table::TupleRef& ref : result.value().provenance) {
    ASSERT_LT(ref.table_index, lake_->size());
    EXPECT_LT(ref.row_index, (*lake_)[ref.table_index]->num_rows());
  }
}

TEST_F(PipelineFixture, RetrievedTablesAreMostlyUnionable) {
  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    auto result = pipeline_->Run(benchmark_->queries[q].data, 5);
    ASSERT_TRUE(result.ok());
    std::set<size_t> truth(benchmark_->unionable[q].begin(),
                           benchmark_->unionable[q].end());
    size_t good = 0;
    for (const search::TableHit& hit : result.value().tables) {
      if (truth.count(hit.table_index)) ++good;
    }
    EXPECT_GE(good * 2, result.value().tables.size()) << "query " << q;
  }
}

TEST_F(PipelineFixture, OutputRowsMatchProvenance) {
  auto result = pipeline_->Run(benchmark_->queries[0].data, 6);
  ASSERT_TRUE(result.ok());
  const PipelineResult& r = result.value();
  // Each output row's non-null values must appear in the source row.
  for (size_t i = 0; i < r.output.num_rows(); ++i) {
    const Table& src = *(*lake_)[r.provenance[i].table_index];
    std::unordered_set<std::string> source_values;
    for (size_t j = 0; j < src.num_columns(); ++j) {
      const table::Value& v = src.at(r.provenance[i].row_index, j);
      if (!v.is_null()) source_values.insert(v.text());
    }
    for (size_t j = 0; j < r.output.num_columns(); ++j) {
      const table::Value& v = r.output.at(i, j);
      if (!v.is_null()) {
        EXPECT_TRUE(source_values.count(v.text()))
            << "row " << i << " col " << j << " value " << v.text();
      }
    }
  }
}

TEST_F(PipelineFixture, DiverseOutputBeatsSimilaritySearchOnDiversity) {
  // The headline claim: DUST's k tuples are more diverse w.r.t. the query
  // than the top-k most-similar tuples (Starmie-style tuple search).
  const Table& query = benchmark_->queries[0].data;
  auto encoder = TestEncoder();
  auto result = pipeline_->Run(query, 15);
  ASSERT_TRUE(result.ok());

  search::TupleSearch similarity(encoder);
  similarity.IndexLake(*lake_);
  auto similar = similarity.SearchTuplesChecked(query, 15).ValueOrDie();

  auto embed_rows = [&](const Table& t) {
    return encoder->EncodeTableRows(t);
  };
  std::vector<la::Vec> query_embeddings = embed_rows(query);
  std::vector<la::Vec> dust_embeddings = embed_rows(result.value().output);
  std::vector<la::Vec> similar_embeddings;
  for (const search::TupleHit& hit : similar) {
    const Table& src = *(*lake_)[hit.ref.table_index];
    similar_embeddings.push_back(encoder->EncodeSerialized(
        table::SerializeTableRow(src, hit.ref.row_index)));
  }

  double dust_avg = diversify::AverageDiversity(
      query_embeddings, dust_embeddings, la::Metric::kCosine);
  double similar_avg = diversify::AverageDiversity(
      query_embeddings, similar_embeddings, la::Metric::kCosine);
  EXPECT_GT(dust_avg, similar_avg);
}

TEST_F(PipelineFixture, D3lEngineAlsoWorks) {
  PipelineConfig config;
  config.num_tables = 5;
  config.engine = "d3l";
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(*lake_);
  auto result = pipeline.Run(benchmark_->queries[0].data, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().output.num_rows(), 5u);
}

TEST_F(PipelineFixture, ErrorsWithoutIndexing) {
  PipelineConfig config;
  DustPipeline pipeline(config, TestEncoder());
  auto result = pipeline.Run(benchmark_->queries[0].data, 5);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, EmptyQueryRejected) {
  Table empty("e");
  auto result = pipeline_->Run(empty, 5);
  EXPECT_FALSE(result.ok());
}

std::string SnapshotPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- offline/online snapshot split -----------------------------------------

TEST_F(PipelineFixture, SnapshotRoundTripServesIdenticalResults) {
  PipelineConfig config;
  config.num_tables = 5;
  config.search_index = "hnsw";
  config.search_shortlist = 8;
  config.hnsw_ef_search = 64;

  DustPipeline offline(config, TestEncoder());
  offline.IndexLake(*lake_);
  const std::string path = SnapshotPath("pipeline_snapshot.bin");
  ASSERT_TRUE(offline.SaveSnapshot(path).ok());

  // The serving process: same config, no IndexLake — it restores the
  // snapshot instead of re-embedding the lake.
  DustPipeline online(config, TestEncoder());
  Status loaded = online.LoadSnapshot(path, *lake_);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    const Table& query = benchmark_->queries[q].data;
    auto expected = offline.Run(query, 8);
    auto actual = online.Run(query, 8);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_EQ(expected.value().tables.size(), actual.value().tables.size());
    for (size_t t = 0; t < expected.value().tables.size(); ++t) {
      EXPECT_EQ(expected.value().tables[t].table_index,
                actual.value().tables[t].table_index);
      EXPECT_EQ(expected.value().tables[t].score,
                actual.value().tables[t].score);
    }
    ASSERT_EQ(expected.value().provenance.size(),
              actual.value().provenance.size());
    for (size_t i = 0; i < expected.value().provenance.size(); ++i) {
      EXPECT_EQ(expected.value().provenance[i].table_index,
                actual.value().provenance[i].table_index);
      EXPECT_EQ(expected.value().provenance[i].row_index,
                actual.value().provenance[i].row_index);
    }
  }

  // Tuning knobs are part of the staleness hash: a serving process
  // configured without them must not consume this snapshot.
  PipelineConfig detuned = config;
  detuned.hnsw_ef_search = 0;
  DustPipeline wrong_knob(detuned, TestEncoder());
  Status stale = wrong_knob.LoadSnapshot(path, *lake_);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, SnapshotWithFlatNoShortlistAlsoRoundTrips) {
  const std::string path = SnapshotPath("pipeline_snapshot_flat.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());

  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline online(config, TestEncoder());
  ASSERT_TRUE(online.LoadSnapshot(path, *lake_).ok());
  auto result = online.Run(benchmark_->queries[0].data, 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().output.num_rows(), 6u);
}

TEST_F(PipelineFixture, StaleSnapshotConfigRejected) {
  const std::string path = SnapshotPath("pipeline_snapshot_stale.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());

  // A serving process with a different embedding config must not silently
  // serve embeddings computed under the old one.
  PipelineConfig drifted;
  drifted.num_tables = 5;
  drifted.seed = pipeline_->config().seed + 1;
  DustPipeline online(drifted, TestEncoder());
  Status loaded = online.LoadSnapshot(path, *lake_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, StaleSnapshotLakeRejected) {
  const std::string path = SnapshotPath("pipeline_snapshot_lake.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());

  // Dropping a table from the lake changes the lake shape the snapshot's
  // staleness hash covers.
  std::vector<const Table*> shrunk(*lake_);
  shrunk.pop_back();
  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline online(config, TestEncoder());
  Status loaded = online.LoadSnapshot(path, shrunk);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, PreMutationSnapshotRejectedAfterLakeMutation) {
  const std::string path = SnapshotPath("pipeline_snapshot_mutated.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());

  // A lake mutated since the snapshot was taken — a mid-lake table deleted
  // (not just truncated at the end) — shifts every later table's id, so
  // the snapshot's tables no longer line up with the lake's. The staleness
  // hash covers every table's name and shape, so the snapshot is rejected,
  // not served against the wrong rows.
  std::vector<const Table*> deleted(*lake_);
  deleted.erase(deleted.begin() + 1);
  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline online(config, TestEncoder());
  Status loaded = online.LoadSnapshot(path, deleted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);

  // Same for an in-place table swap that keeps the lake's size but changes
  // a table's shape (the delete-then-re-add-under-the-same-name flow).
  Table replacement((*lake_)[1]->name());
  ASSERT_TRUE(replacement.AddColumn("only", {table::Value("row")}).ok());
  std::vector<const Table*> swapped(*lake_);
  swapped[1] = &replacement;
  DustPipeline online2(config, TestEncoder());
  loaded = online2.LoadSnapshot(path, swapped);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, SaveSnapshotBeforeIndexLakeFails) {
  PipelineConfig config;
  DustPipeline fresh(config, TestEncoder());
  Status saved = fresh.SaveSnapshot(SnapshotPath("never_written.bin"));
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, SnapshotHeaderHashIsPinned) {
  // The staleness hash SaveSnapshot writes must survive refactors of the
  // hashing code, or every snapshot already on disk turns stale. It
  // depends only on config and table shapes, so one constant serves both
  // SIMD backends.
  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(*lake_);
  const std::string path = SnapshotPath("pipeline_snapshot_header.bin");
  ASSERT_TRUE(pipeline.SaveSnapshot(path).ok());
  io::IndexReader reader(path);
  ASSERT_TRUE(reader.ExpectMagic(io::kSnapshotMagic, "DUST snapshot").ok());
  uint32_t version = 0;
  ASSERT_TRUE(reader.ReadU32(&version).ok());
  uint64_t hash = 0;
  ASSERT_TRUE(reader.ReadU64(&hash).ok());
  EXPECT_EQ(hash, 0x1b6ecb763db5cdffull);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PipelineFixture, SnapshotOfAnotherVersionIsRejectedWithRebuildHint) {
  // Bytes 8-11 hold the format version. Only the current one loads; a v2
  // snapshot (id mapping, profiles, trailing cascade byte) must be rebuilt.
  const std::string path = SnapshotPath("pipeline_snapshot_v2.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 12u);
  const uint32_t old_version = 2;
  std::memcpy(&bytes[8], &old_version, sizeof(old_version));
  WriteFileBytes(path, bytes);

  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline online(config, TestEncoder());
  Status loaded = online.LoadSnapshot(path, *lake_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kIoError);
  EXPECT_NE(loaded.message().find("version 2"), std::string::npos)
      << loaded.ToString();
  EXPECT_NE(loaded.message().find("rebuild"), std::string::npos)
      << loaded.ToString();
}

// Tables, scores and provenance of two Run results must agree exactly.
void ExpectSameRun(const PipelineResult& expected,
                   const PipelineResult& actual) {
  ASSERT_EQ(actual.tables.size(), expected.tables.size());
  for (size_t t = 0; t < expected.tables.size(); ++t) {
    EXPECT_EQ(actual.tables[t].table_index, expected.tables[t].table_index);
    EXPECT_EQ(actual.tables[t].score, expected.tables[t].score);
  }
  ASSERT_EQ(actual.provenance.size(), expected.provenance.size());
  for (size_t i = 0; i < expected.provenance.size(); ++i) {
    EXPECT_EQ(actual.provenance[i], expected.provenance[i]);
  }
}

// Two tables unionable with query 0: a snapshot of the whole lake differs
// from the state of a pipeline indexed over them in every section.
std::vector<const Table*> TwoTableLake(const datagen::Benchmark& benchmark,
                                       const std::vector<const Table*>& lake) {
  const std::vector<size_t>& unionable = benchmark.unionable[0];
  EXPECT_GE(unionable.size(), 2u);
  return {lake[unionable[0]], lake[unionable[1]]};
}

TEST_F(PipelineFixture, FailedSnapshotLoadKeepsServingTheIndexedLake) {
  // A snapshot of the whole lake, cut off inside the engine state: its
  // header checks out, so the engine starts reading it.
  const std::string path = SnapshotPath("pipeline_snapshot_truncated.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));

  // A pipeline serving two tables must come out of the failed load
  // unchanged, not half-loaded with table ids past its lake.
  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(TwoTableLake(*benchmark_, *lake_));
  const Table& query = benchmark_->queries[0].data;
  auto before = pipeline.Run(query, 8);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Status loaded = pipeline.LoadSnapshot(path, *lake_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kIoError) << loaded.ToString();

  auto after = pipeline.Run(query, 8);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameRun(before.value(), after.value());
}

TEST_F(PipelineFixture, SnapshotWithTrailingBytesRejectedAndChangesNothing) {
  // Bytes after the engine state mean the file was concatenated with
  // something or partly overwritten. Every section before them checks out,
  // so only the end check can catch it; the load must fail, count them, and
  // leave the pipeline serving the lake it had.
  const std::string path = SnapshotPath("pipeline_snapshot_trailing.bin");
  ASSERT_TRUE(pipeline_->SaveSnapshot(path).ok());
  const std::string bytes = ReadFileBytes(path);

  PipelineConfig config;
  config.num_tables = 5;
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(TwoTableLake(*benchmark_, *lake_));
  const Table& query = benchmark_->queries[0].data;
  auto before = pipeline.Run(query, 8);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  for (size_t extra : {size_t{1}, size_t{23}}) {
    WriteFileBytes(path, bytes + std::string(extra, '\x5a'));
    Status loaded = pipeline.LoadSnapshot(path, *lake_);
    ASSERT_FALSE(loaded.ok()) << extra;
    EXPECT_EQ(loaded.code(), StatusCode::kIoError) << loaded.ToString();
    EXPECT_NE(loaded.message().find(std::to_string(extra) + " extra bytes"),
              std::string::npos)
        << loaded.ToString();
    auto after = pipeline.Run(query, 8);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectSameRun(before.value(), after.value());
  }

  // The file as saved still loads and serves the whole lake.
  WriteFileBytes(path, bytes);
  ASSERT_TRUE(pipeline.LoadSnapshot(path, *lake_).ok());
  auto restored = pipeline.Run(query, 8);
  auto expected = pipeline_->Run(query, 8);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectSameRun(expected.value(), restored.value());
}

TEST(PipelineConfigDeathTest, UnknownEngineAborts) {
  // Only "starmie" and "d3l" name an engine; any other name, a case variant
  // included, must not silently run one of them.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  PipelineConfig config;
  config.engine = "D3L";
  EXPECT_DEATH(DustPipeline(config, TestEncoder()),
               "DUST_CHECK failed.*engine");
}

TEST_F(PipelineFixture, D3lEngineSnapshotUnimplemented) {
  PipelineConfig config;
  config.num_tables = 5;
  config.engine = "d3l";
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(*lake_);
  Status saved = pipeline.SaveSnapshot(SnapshotPath("d3l_snapshot.bin"));
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kUnimplemented);
}

// --- parallel Algorithm 1 ----------------------------------------------------

TEST_F(PipelineFixture, RunIsIdenticalOnEveryExecutor) {
  // Run embeds columns, encodes tuples and builds its distance matrices on
  // Executor::Current(), and IndexLake and search fan out on it too. The
  // output table and provenance must not depend on
  // which pool ran the work: inline, four workers, or the default pool.
  // Both the pretrained encoder and a DustModel are shared by every Run, as
  // in serving. The fixture's lake keeps 120 tuples, a matrix that one
  // claim covers; a lake of 300-row base tables keeps 500 of its 541-643
  // unioned tuples, whose pairs span several claims.
  datagen::TusConfig wide_config;
  wide_config.num_queries = 3;
  wide_config.unionable_per_query = 5;
  wide_config.distractors_per_base = 1;
  wide_config.base_rows = 300;
  wide_config.seed = 99;
  const datagen::Benchmark wide = datagen::GenerateTus(wide_config);
  std::vector<const Table*> wide_lake;
  for (const auto& t : wide.lake) wide_lake.push_back(&t.data);
  struct Case {
    const datagen::Benchmark* benchmark;
    const std::vector<const Table*>* lake;
    size_t prune_s;
  };
  const Case cases[] = {{benchmark_, lake_, 120}, {&wide, &wide_lake, 500}};
  ASSERT_GE(500u * 499u / 2u, 3 * la::DistanceMatrix::kGrainPairs);

  nn::DustModelConfig model_config;
  model_config.embedding_dim = 48;
  const std::vector<std::shared_ptr<embed::TupleEncoder>> encoders = {
      TestEncoder(), std::make_shared<nn::DustModel>(model_config)};
  for (const Case& c : cases) {
    PipelineConfig config;
    config.num_tables = 5;
    config.diversifier.prune_s = c.prune_s;
    for (const auto& encoder : encoders) {
      const std::string what =
          encoder->name() + " prune_s " + std::to_string(c.prune_s);
      auto run_all = [&](serve::Executor& executor) {
        const serve::ScopedExecutor scope(executor);
        DustPipeline pipeline(config, encoder);
        pipeline.IndexLake(*c.lake);
        std::vector<PipelineResult> results;
        for (const auto& query : c.benchmark->queries) {
          auto result = pipeline.Run(query.data, 10);
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (!result.ok()) continue;
          size_t unioned = 0;
          for (const search::TableHit& hit : result.value().tables) {
            unioned += (*c.lake)[hit.table_index]->num_rows();
          }
          EXPECT_GT(unioned, c.prune_s) << what;
          results.push_back(std::move(result).value());
        }
        return results;
      };
      serve::Executor inline_pool(0);
      serve::Executor four(4);
      const std::vector<PipelineResult> expected = run_all(inline_pool);
      ASSERT_EQ(expected.size(), c.benchmark->queries.size()) << what;
      for (serve::Executor* executor : {&four, &serve::Executor::Default()}) {
        const std::vector<PipelineResult> actual = run_all(*executor);
        ASSERT_EQ(actual.size(), expected.size()) << what;
        for (size_t q = 0; q < expected.size(); ++q) {
          const Table& want = expected[q].output;
          const Table& got = actual[q].output;
          EXPECT_EQ(got.ColumnNames(), want.ColumnNames());
          ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
          for (size_t i = 0; i < want.num_rows(); ++i) {
            for (size_t j = 0; j < want.num_columns(); ++j) {
              EXPECT_EQ(got.at(i, j), want.at(i, j))
                  << what << " query " << q << " row " << i;
            }
          }
          EXPECT_EQ(actual[q].provenance, expected[q].provenance)
              << what << " query " << q;
        }
      }
    }
  }
}

// --- golden Algorithm 1 output ---------------------------------------------

uint64_t FnvMix(uint64_t h, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST_F(PipelineFixture, GoldenOutputWithPruningAndClustering) {
  // Pins Run's answers bit for bit, so performance work on search, align,
  // embed or diversify can show it changed nothing. prune_s sits below the
  // unioned tuple count of every query, so pruning, the distance matrix,
  // NN-chain clustering, medoids and re-ranking all run. The hash covers
  // the retrieved tables with their score bits, the provenance of every
  // selected tuple, and the bits of the output's diversity from the query.
  PipelineConfig config;
  config.num_tables = 5;
  config.diversifier.prune_s = 120;
  DustPipeline pipeline(config, TestEncoder());
  pipeline.IndexLake(*lake_);
  auto encoder = TestEncoder();

  uint64_t h = 14695981039346656037ull;
  for (size_t q = 0; q < benchmark_->queries.size(); ++q) {
    const Table& query = benchmark_->queries[q].data;
    auto result = pipeline.Run(query, 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const PipelineResult& r = result.value();
    size_t unioned = 0;
    for (const search::TableHit& hit : r.tables) {
      unioned += (*lake_)[hit.table_index]->num_rows();
      h = FnvMix(h, hit.table_index);
      h = FnvMix(h, DoubleBits(hit.score));
    }
    ASSERT_GT(unioned, config.diversifier.prune_s) << "query " << q;
    h = FnvMix(h, r.provenance.size());
    for (const table::TupleRef& ref : r.provenance) {
      h = FnvMix(h, ref.table_index);
      h = FnvMix(h, ref.row_index);
    }
    const diversify::DiversityScores scores = diversify::ScoreDiversity(
        encoder->EncodeTableRows(query), encoder->EncodeTableRows(r.output),
        la::Metric::kCosine);
    h = FnvMix(h, DoubleBits(scores.average));
    h = FnvMix(h, DoubleBits(scores.min));
  }

  // The scalar backend's dot rounds differently from AVX2's, so the
  // selected tuples legitimately differ between backends: one expected
  // value each.
  const std::map<std::string, uint64_t> expected = {
      {"avx2", 0x38e3d646558fdf16ull},
      {"scalar", 0x1fc053d847b7b5dcull},
  };
  const std::string backend = la::simd::ActiveName();
  ASSERT_EQ(expected.count(backend), 1u) << backend;
  EXPECT_EQ(h, expected.at(backend))
      << backend << " hash 0x" << std::hex << h;
}

}  // namespace
}  // namespace dust::core

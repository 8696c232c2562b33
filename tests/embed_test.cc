// Unit tests for src/embed: encoder zoo, column embedders (serial and
// pooled), Starmie encoder, tuple encoders.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "datagen/tus_generator.h"
#include "embed/column_embedder.h"
#include "embed/embedder.h"
#include "embed/hashed_encoders.h"
#include "embed/starmie_encoder.h"
#include "embed/tuple_encoder.h"
#include "la/distance.h"
#include "la/simd/kernels.h"
#include "serve/executor.h"
#include "table/serialize.h"
#include "text/hashing.h"

namespace dust::embed {
namespace {

using la::CosineSimilarity;
using la::Norm;
using table::Table;
using table::Value;

EmbedderConfig NoiselessConfig(size_t dim = 32) {
  EmbedderConfig config;
  config.dim = dim;
  config.noise_level = 0.0f;
  return config;
}

TEST(EmbedderTest, Deterministic) {
  auto e = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig());
  EXPECT_EQ(e->Embed("River Park USA"), e->Embed("River Park USA"));
}

TEST(EmbedderTest, UnitNorm) {
  auto e = MakeEmbedder(ModelFamily::kBert, DefaultConfigFor(ModelFamily::kBert, 32));
  la::Vec v = e->Embed("Hyde Park Jenny Rishi UK");
  EXPECT_NEAR(Norm(v), 1.0f, 1e-4);
}

TEST(EmbedderTest, EmptyTextGivesZeroVector) {
  auto e = MakeEmbedder(ModelFamily::kGlove, NoiselessConfig());
  EXPECT_NEAR(Norm(e->Embed("")), 0.0f, 1e-6);
}

TEST(EmbedderTest, SimilarTextsCloserThanUnrelated) {
  auto e = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(64));
  la::Vec park1 = e->Embed("Park Name River Park Supervisor Vera Onate");
  la::Vec park2 = e->Embed("Park Name Hyde Park Supervisor Jenny Rishi");
  la::Vec painting = e->Embed("Painting Northern Lake Medium Oil on canvas");
  EXPECT_GT(CosineSimilarity(park1, park2), CosineSimilarity(park1, painting));
}

TEST(EmbedderTest, FamiliesEmbedIntoUnrelatedSpaces) {
  auto bert = MakeEmbedder(ModelFamily::kBert, NoiselessConfig(64));
  auto roberta = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(64));
  la::Vec a = bert->Embed("River Park USA");
  la::Vec b = roberta->Embed("River Park USA");
  // Cross-family similarity of the same text should be far from 1.
  EXPECT_LT(std::abs(CosineSimilarity(a, b)), 0.8f);
}

TEST(EmbedderTest, NoiseLevelPerturbsButPreservesIdentity) {
  EmbedderConfig noisy = NoiselessConfig(64);
  noisy.noise_level = 0.5f;
  auto e = MakeEmbedder(ModelFamily::kSbert, noisy);
  // Same text twice: identical (noise is deterministic per text).
  EXPECT_EQ(e->Embed("abc def"), e->Embed("abc def"));
}

TEST(EmbedderTest, FamilyNames) {
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kFastText), "FastText");
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kSbert), "sBERT");
}

TEST(EmbedderTest, FamilyFeaturesDifferByFamily) {
  auto words = FamilyFeatures(ModelFamily::kGlove, "chippewa park");
  auto subwords = FamilyFeatures(ModelFamily::kBert, "chippewa park");
  EXPECT_EQ(words.size(), 2u);
  EXPECT_GT(subwords.size(), 2u);  // "chippewa" splits into pieces
}

TEST(FeatureHashTest, StreamingHashesEqualHashStringOverFamilyFeatures) {
  // AppendFeatureHashes must yield HashString(f, seed) for every feature f
  // of FamilyFeatures, in order, for every family. The texts cover word
  // splitting (empty, punctuation only, upper case, digits, bytes >= 0x80),
  // the subword-piece boundaries of BERT (4) and RoBERTa (6) at word
  // lengths 1, 4-9, 12 and 13, and the FastText 3/4-gram boundaries at
  // padded lengths 3-6 (words of 1-4 characters; padding makes 2
  // impossible).
  const std::vector<std::string> texts = {
      "",
      " ,;- !!! ...",
      "UPPER Case MiXeD",
      "773 731-0380 x1y2z3",
      "caf\xc3\xa9 \xff\x80xyz\x80 na\xc3\xafve",
      "a abcdef abcdefg abcdefghijkl abcdefghijklm",
      "ab abc abcd abcde abcdefgh abcdefghi",
      "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP]",
      "supercalifragilisticexpialidocious",
  };
  const ModelFamily families[] = {ModelFamily::kFastText, ModelFamily::kGlove,
                                  ModelFamily::kBert, ModelFamily::kRoberta,
                                  ModelFamily::kSbert};
  for (ModelFamily family : families) {
    for (const std::string& text : texts) {
      for (uint64_t seed : {0ull, 0x20BE27Aull}) {
        std::vector<uint64_t> expected;
        for (const std::string& f : FamilyFeatures(family, text)) {
          expected.push_back(text::HashString(f, seed));
        }
        std::vector<uint64_t> streamed = {42};  // appends, keeps what is there
        AppendFeatureHashes(family, text, seed, &streamed);
        ASSERT_FALSE(streamed.empty());
        EXPECT_EQ(streamed.front(), 42u);
        streamed.erase(streamed.begin());
        EXPECT_EQ(streamed, expected)
            << ModelFamilyName(family) << " \"" << text << "\"";
      }
    }
  }
}

Table MakeParkTable() {
  Table t("parks");
  EXPECT_TRUE(t.AddColumn("Park Name",
                          {Value("River Park"), Value("Hyde Park")}).ok());
  EXPECT_TRUE(t.AddColumn("Country", {Value("USA"), Value("UK")}).ok());
  EXPECT_TRUE(t.AddColumn("Acres", {Value("12.5"), Value("30.2")}).ok());
  return t;
}

TEST(ColumnEmbedderTest, CellLevelAveragesCells) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kGlove, NoiselessConfig(32)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  Table t = MakeParkTable();
  la::Vec v = embedder.EmbedColumn(t.column(1), nullptr);
  // Average of Embed("USA") and Embed("UK"), normalized.
  la::Vec expected = la::Mean({enc->Embed("USA"), enc->Embed("UK")});
  la::NormalizeInPlace(&expected);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], expected[i], 1e-5);
}

TEST(ColumnEmbedderTest, CellLevelSkipsNulls) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kGlove, NoiselessConfig(32)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  table::Column c;
  c.name = "x";
  c.values = {Value("USA"), Value::Null()};
  la::Vec v = embedder.EmbedColumn(c, nullptr);
  la::Vec expected = enc->Embed("USA");
  la::NormalizeInPlace(&expected);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], expected[i], 1e-5);
}

TEST(ColumnEmbedderTest, ColumnLevelUsesTokenLimit) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  ColumnEmbedder small(enc, ColumnSerialization::kColumnLevel, 2);
  ColumnEmbedder large(enc, ColumnSerialization::kColumnLevel, 512);
  Table t = MakeParkTable();
  // With a tiny token limit the embedding differs from the full one.
  la::Vec limited = small.EmbedColumn(t.column(0), nullptr);
  la::Vec full = large.EmbedColumn(t.column(0), nullptr);
  EXPECT_NE(limited, full);
}

TEST(ColumnEmbedderTest, EmbedTablesShapes) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kSbert, NoiselessConfig(16)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kColumnLevel);
  Table a = MakeParkTable();
  Table b = MakeParkTable();
  auto all = embedder.EmbedTables({&a, &b});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].size(), 3u);
  EXPECT_EQ(all[0][0].size(), 16u);
}

TEST(ColumnEmbedderTest, NameIncludesSerializationAndModel) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kBert, NoiselessConfig(16)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  EXPECT_EQ(embedder.name(), "Cell-level BERT");
}

TEST(StarmieEncoderTest, SameTableColumnsPulledTogether) {
  // The table-context mixing must make same-table columns more similar
  // than the pure content embeddings would be (the Sec. 6.2.4 failure
  // mode for alignment).
  StarmieConfig config;
  config.dim = 32;
  StarmieEncoder starmie(config);
  Table t = MakeParkTable();
  std::vector<la::Vec> ctx = starmie.EncodeTable(t);
  ASSERT_EQ(ctx.size(), 3u);

  auto enc = std::shared_ptr<TextEmbedder>(MakeEmbedder(
      ModelFamily::kRoberta,
      DefaultConfigFor(ModelFamily::kRoberta, 32, config.seed ^ 0x57A2ULL)));
  ColumnEmbedder pure(enc, ColumnSerialization::kColumnLevel);
  la::Vec pure0 = pure.EmbedColumn(t.column(0), nullptr);
  la::Vec pure1 = pure.EmbedColumn(t.column(1), nullptr);

  EXPECT_GT(CosineSimilarity(ctx[0], ctx[1]), CosineSimilarity(pure0, pure1));
}

TEST(StarmieEncoderTest, NumericColumnsMostlyContext) {
  StarmieConfig config;
  config.dim = 32;
  StarmieEncoder starmie(config);
  Table t = MakeParkTable();
  std::vector<la::Vec> ctx = starmie.EncodeTable(t);
  // The numeric "Acres" column should sit closer to the other columns
  // (it is dominated by table context) than the name column is to country.
  float numeric_to_name = CosineSimilarity(ctx[2], ctx[0]);
  EXPECT_GT(numeric_to_name, 0.2f);
}

TEST(TupleEncoderTest, PretrainedEncodesSerializedText) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  PretrainedTupleEncoder tuple_encoder(enc);
  EXPECT_EQ(tuple_encoder.dim(), 32u);
  la::Vec direct = enc->Embed("[CLS] A x [SEP]");
  la::Vec via = tuple_encoder.EncodeSerialized("[CLS] A x [SEP]");
  EXPECT_EQ(direct, via);
}

TEST(TupleEncoderTest, EncodeTableRowsOnePerRow) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  PretrainedTupleEncoder tuple_encoder(enc);
  Table t = MakeParkTable();
  auto rows = tuple_encoder.EncodeTableRows(t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0], rows[1]);
}

// --- golden encoder bits ----------------------------------------------------

/// A fixed set of alg1_tus-shaped serialized tuples (every row of a small
/// generated TUS lake and its queries) plus hand-written edge cases.
std::vector<std::string> GoldenTexts() {
  datagen::TusConfig config;
  config.num_queries = 2;
  config.unionable_per_query = 3;
  config.distractors_per_base = 1;
  config.base_rows = 40;
  config.seed = 11;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<std::string> texts = {
      "",
      "[CLS] [SEP]",
      "!!! ,;- ...",
      "UPPER lower MiXeD",
      "773 731-0380 1e9 0.5",
      "Caf\xc3\xa9 Z\xc3\xbcrich na\xc3\xafve \xff\x80 byte",
      "a ab abc abcd abcde abcdef abcdefg abcdefghijkl abcdefghijklm",
      "supercalifragilisticexpialidocious antidisestablishmentarianism",
  };
  auto add_rows = [&texts](const Table& t) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      texts.push_back(table::SerializeTableRow(t, r));
    }
  };
  for (const auto& t : benchmark.lake) add_rows(t.data);
  for (const auto& q : benchmark.queries) add_rows(q.data);
  return texts;
}

/// FNV-1a over the length and float bits of every vector.
uint64_t HashVecs(const std::vector<la::Vec>& vecs) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const la::Vec& v : vecs) {
    mix(v.size());
    for (float x : v) {
      uint32_t bits = 0;
      std::memcpy(&bits, &x, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// HashVecs over every column embedding, table by table.
uint64_t HashTables(const std::vector<std::vector<la::Vec>>& tables) {
  std::vector<la::Vec> columns;
  for (const auto& t : tables) {
    columns.insert(columns.end(), t.begin(), t.end());
  }
  return HashVecs(columns);
}

TEST(ColumnEmbedderTest, EmbedTablesIsIdenticalOnEveryExecutor) {
  // Tokenizing and embedding run in claims of about kGrainCells cells; the
  // lake below spans several claims. Each column's tokens and embedding are
  // a pure function of the column and the TF-IDF fit, so every pool must
  // give the inline result bit for bit, for both serializations and for a
  // cap small enough that TF-IDF selection runs.
  datagen::TusConfig config;
  config.num_queries = 2;
  config.unionable_per_query = 3;
  config.distractors_per_base = 1;
  config.base_rows = 300;
  config.seed = 12;
  const datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const Table*> tables;
  size_t cells = 0;
  for (const auto& t : benchmark.lake) {
    tables.push_back(&t.data);
    cells += t.data.num_rows() * t.data.num_columns();
  }
  ASSERT_GT(cells, 4 * ColumnEmbedder::kGrainCells);
  auto encoder = std::shared_ptr<TextEmbedder>(MakeEmbedder(
      ModelFamily::kRoberta, DefaultConfigFor(ModelFamily::kRoberta, 64)));
  serve::Executor inline_executor(0);
  serve::Executor four(4);
  for (ColumnSerialization serialization :
       {ColumnSerialization::kColumnLevel, ColumnSerialization::kCellLevel}) {
    for (size_t limit : {512, 16}) {
      const ColumnEmbedder embedder(encoder, serialization, limit);
      const auto hash_on = [&](serve::Executor& executor) {
        const serve::ScopedExecutor scope(executor);
        return HashTables(embedder.EmbedTables(tables));
      };
      const uint64_t want = hash_on(inline_executor);
      EXPECT_EQ(hash_on(four), want)
          << embedder.name() << " limit " << limit << " on Executor(4)";
      EXPECT_EQ(hash_on(serve::Executor::Default()), want)
          << embedder.name() << " limit " << limit << " on Default()";
    }
  }
}

TEST(EncoderGoldenTest, HashedEncoderBitsArePinnedPerFamily) {
  // Pins every family's Embed bit for bit at its DefaultConfigFor noise, so
  // featurization and hashing work can show it changed nothing. The final
  // NormalizeInPlace runs on the SIMD dot, so each backend has its own
  // constants.
  const std::vector<std::string> texts = GoldenTexts();
  const ModelFamily families[] = {ModelFamily::kFastText, ModelFamily::kGlove,
                                  ModelFamily::kBert, ModelFamily::kRoberta,
                                  ModelFamily::kSbert};
  const std::map<std::string, uint64_t> expected = {
      {"avx2 FastText", 0x98a7363210eff447ull},
      {"avx2 Glove", 0xdacae528f6d2ed24ull},
      {"avx2 BERT", 0xb46488a581d9c1a6ull},
      {"avx2 RoBERTa", 0x081fe66f57abab2bull},
      {"avx2 sBERT", 0xf1d74cc704dbdb02ull},
      {"scalar FastText", 0x64fde8c040a582cbull},
      {"scalar Glove", 0xd4d6da2cb21898b6ull},
      {"scalar BERT", 0x648a4e4e05539ea2ull},
      {"scalar RoBERTa", 0x08058ad92b17f2abull},
      {"scalar sBERT", 0x2998e63d710e1adeull},
  };
  for (ModelFamily family : families) {
    auto encoder = MakeEmbedder(family, DefaultConfigFor(family, 64));
    std::vector<la::Vec> vecs;
    for (const std::string& text : texts) vecs.push_back(encoder->Embed(text));
    const uint64_t h = HashVecs(vecs);
    const std::string key =
        std::string(la::simd::ActiveName()) + " " + ModelFamilyName(family);
    ASSERT_EQ(expected.count(key), 1u) << key;
    EXPECT_EQ(h, expected.at(key)) << key << " hash 0x" << std::hex << h;
  }
}

TEST(EncoderGoldenTest, ServeTupleEncoderBitsArePinned) {
  // The served tuple encoder: noiseless RoBERTa at dim 64. Without noise
  // the bag vector holds small integers, whose squared norm is exact in any
  // summation order, so both backends share one value.
  EmbedderConfig config;
  config.dim = 64;
  PretrainedTupleEncoder encoder(std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, config)));
  std::vector<la::Vec> vecs;
  for (const std::string& text : GoldenTexts()) {
    vecs.push_back(encoder.EncodeSerialized(text));
  }
  const uint64_t h = HashVecs(vecs);
  EXPECT_EQ(h, 0x0c444528781951feull) << "hash 0x" << std::hex << h;
}

TEST(EncoderGoldenTest, ColumnEmbeddingBitsArePinned) {
  // Column-level alignment embeddings as Run computes them (RoBERTa at its
  // default noise, TF-IDF over every column passed in), once with the
  // paper's 512-token cap and once with a cap small enough that TF-IDF
  // selection runs, plus the no-corpus truncation path StarmieEncoder uses.
  datagen::TusConfig config;
  config.num_queries = 2;
  config.unionable_per_query = 3;
  config.distractors_per_base = 1;
  config.base_rows = 40;
  config.seed = 11;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<const Table*> tables;
  for (const auto& q : benchmark.queries) tables.push_back(&q.data);
  for (const auto& t : benchmark.lake) tables.push_back(&t.data);
  auto encoder = std::shared_ptr<TextEmbedder>(MakeEmbedder(
      ModelFamily::kRoberta, DefaultConfigFor(ModelFamily::kRoberta, 64)));
  std::vector<la::Vec> vecs;
  for (size_t limit : {512, 16}) {
    ColumnEmbedder embedder(encoder, ColumnSerialization::kColumnLevel, limit);
    for (const auto& table_vecs : embedder.EmbedTables(tables)) {
      vecs.insert(vecs.end(), table_vecs.begin(), table_vecs.end());
    }
    for (const table::Column& c : tables[0]->columns()) {
      vecs.push_back(embedder.EmbedColumn(c, nullptr));
    }
  }
  const uint64_t h = HashVecs(vecs);
  const std::map<std::string, uint64_t> expected = {
      {"avx2", 0x4b35cce692d4e1ccull},
      {"scalar", 0xf71f696aaa34efdeull},
  };
  const std::string backend = la::simd::ActiveName();
  ASSERT_EQ(expected.count(backend), 1u) << backend;
  EXPECT_EQ(h, expected.at(backend)) << backend << " hash 0x" << std::hex << h;
}

}  // namespace
}  // namespace dust::embed

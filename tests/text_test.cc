// Unit tests for src/text: tokenization, TF-IDF, feature hashing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>

#include "serve/executor.h"
#include "text/hashing.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace dust::text {
namespace {

TEST(TokenizerTest, WordTokensLowercaseAndSplit) {
  auto tokens = WordTokens("River Park, USA 773-0380");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"river", "park", "usa", "773", "0380"}));
}

TEST(TokenizerTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens(" ,;- ").empty());
}

TEST(TokenizerTest, ForEachWordYieldsRawSpans) {
  // Bytes >= 0x80 and punctuation separate words; case is left as it is.
  const std::string text = "  Caf\xc3\xa9-X9 ok.";
  std::vector<std::string_view> words;
  ForEachWord(text, [&](std::string_view w) { words.push_back(w); });
  EXPECT_EQ(words, (std::vector<std::string_view>{"Caf", "X9", "ok"}));
  for (std::string_view w : words) {
    EXPECT_GE(w.data(), text.data());
    EXPECT_LE(w.data() + w.size(), text.data() + text.size());
  }
  EXPECT_EQ(WordTokens(text), (std::vector<std::string>{"caf", "x9", "ok"}));
}

TEST(TokenizerTest, CharNgramsFastTextConvention) {
  auto grams = CharNgrams("park", 3);
  EXPECT_EQ(grams,
            (std::vector<std::string>{"<pa", "par", "ark", "rk>"}));
}

TEST(TokenizerTest, CharNgramsShortWordKeptWhole) {
  auto grams = CharNgrams("ab", 4);
  EXPECT_EQ(grams, (std::vector<std::string>{"<ab>"}));
}

TEST(TokenizerTest, SubwordPiecesSplitLongWords) {
  auto pieces = SubwordPieces("chippewa", 4);
  EXPECT_EQ(pieces, (std::vector<std::string>{"chip", "##pewa"}));
}

TEST(TokenizerTest, SubwordPiecesKeepShortWords) {
  auto pieces = SubwordPieces("park usa", 6);
  EXPECT_EQ(pieces, (std::vector<std::string>{"park", "usa"}));
}

TEST(TokenizerTest, ApproxTokenCount) {
  EXPECT_EQ(ApproxTokenCount("a b  c"), 3u);
  EXPECT_EQ(ApproxTokenCount(""), 0u);
  EXPECT_EQ(ApproxTokenCount("  x  "), 1u);
}

TEST(HashingTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashString("park", 1), HashString("park", 1));
  EXPECT_NE(HashString("park", 1), HashString("park", 2));
  EXPECT_NE(HashString("park", 1), HashString("lark", 1));
}

TEST(HashingTest, VectorDeterministic) {
  std::vector<std::string> tokens = {"a", "b", "c"};
  EXPECT_EQ(HashTokensToVector(tokens, 16, 7),
            HashTokensToVector(tokens, 16, 7));
  EXPECT_NE(HashTokensToVector(tokens, 16, 7),
            HashTokensToVector(tokens, 16, 8));
}

TEST(HashingTest, VectorAdditive) {
  auto va = HashTokensToVector({"a"}, 32, 7);
  auto vb = HashTokensToVector({"b"}, 32, 7);
  auto vab = HashTokensToVector({"a", "b"}, 32, 7);
  for (size_t i = 0; i < 32; ++i) EXPECT_FLOAT_EQ(vab[i], va[i] + vb[i]);
}

TEST(HashingTest, WeightedVector) {
  auto v1 = HashTokensToVector({"x"}, 16, 3);
  auto v2 = HashTokensToVectorWeighted({"x"}, {2.5f}, 16, 3);
  for (size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(v2[i], 2.5f * v1[i]);
}

TEST(HashingTest, IncrementalStateMatchesHashString) {
  // Bytes added in pieces hash as their concatenation.
  for (uint64_t seed : {0ull, 7ull, 0xFFFFFFFFFFFFFFFFull}) {
    Fnv1a pieces = Fnv1a::Seeded(seed);
    pieces.Add("##");
    pieces.Add('p');
    pieces.Add("ark|x");
    EXPECT_EQ(pieces.Finish(), HashString("##park|x", seed));
    EXPECT_EQ(Fnv1a::Seeded(seed).Finish(), HashString("", seed));
  }
  // The scheme is persisted in snapshot headers and cache keys.
  EXPECT_EQ(HashString("park", 1), 0x30e2299ea61169c4ull);
}

TEST(HashingTest, HashFormsMatchTokenForms) {
  // Repeated tokens, over power-of-two and other widths.
  std::vector<std::string> tokens;
  for (int i = 0; i < 200; ++i) tokens.push_back("t" + std::to_string(i % 37));
  for (size_t dim : {1u, 7u, 16u, 100u, 4096u}) {
    std::vector<uint64_t> hashes;
    for (const std::string& t : tokens) hashes.push_back(HashString(t, 9));
    EXPECT_EQ(HashesToVector(hashes, dim), HashTokensToVector(tokens, dim, 9));
    SparseVector a = HashesToSparse(hashes, dim);
    SparseVector b = HashTokensSparse(tokens, dim, 9);
    EXPECT_EQ(a.indices, b.indices) << dim;
    EXPECT_EQ(a.values, b.values) << dim;
  }
  EXPECT_TRUE(HashesToSparse({}, 8).indices.empty());
}

TEST(HashingTest, SparseDropsCancelledIndices) {
  // One token of each sign share index 0 of a 1-wide space and cancel.
  std::vector<std::string> tokens(2);
  for (int i = 0; tokens[0].empty() || tokens[1].empty(); ++i) {
    const std::string t = "t" + std::to_string(i);
    tokens[HashString(t, 9) >> 63] = t;
  }
  std::vector<uint64_t> hashes = {HashString(tokens[0], 9),
                                  HashString(tokens[1], 9)};
  EXPECT_EQ(HashesToVector(hashes, 1), std::vector<float>{0.0f});
  EXPECT_TRUE(HashesToSparse(hashes, 1).indices.empty());
  EXPECT_TRUE(HashTokensSparse(tokens, 1, 9).indices.empty());
}

TEST(HashingTest, SparseMergesDuplicates) {
  SparseVector sv = HashTokensSparse({"a", "a", "b"}, 64, 7);
  // "a" appears twice -> one index with value +-2 (same sign both times).
  bool found_two = false;
  for (float v : sv.values) {
    if (v == 2.0f || v == -2.0f) found_two = true;
  }
  EXPECT_TRUE(found_two);
  // Indices sorted ascending and unique.
  for (size_t i = 1; i < sv.indices.size(); ++i) {
    EXPECT_LT(sv.indices[i - 1], sv.indices[i]);
  }
}

TEST(HashingTest, SparseMatchesDense) {
  std::vector<std::string> tokens = {"park", "name", "river", "park"};
  auto dense = HashTokensToVector(tokens, 128, 9);
  SparseVector sv = HashTokensSparse(tokens, 128, 9);
  std::vector<float> rebuilt(128, 0.0f);
  for (size_t k = 0; k < sv.indices.size(); ++k) {
    rebuilt[sv.indices[k]] = sv.values[k];
  }
  EXPECT_EQ(dense, rebuilt);
}

TEST(TfidfTest, IdfOrdersRareAboveCommon) {
  std::vector<std::vector<std::string>> docs = {
      {"park", "river"}, {"park", "lake"}, {"park", "hill"}};
  TfidfModel model(docs);
  EXPECT_GT(model.Idf("river"), model.Idf("park"));
  EXPECT_GT(model.Idf("unseen"), model.Idf("river"));
  EXPECT_EQ(model.num_documents(), 3u);
}

TEST(TfidfTest, WeightsCombineTfAndIdf) {
  std::vector<std::vector<std::string>> docs = {{"a", "b"}, {"a", "c"}};
  TfidfModel model(docs);
  auto weights = model.Weights({"a", "a", "b"});
  // "a" has tf 2/3 but low idf; "b" tf 1/3 high idf.
  EXPECT_GT(weights.at("b"), 0.0f);
  EXPECT_GT(weights.at("a"), 0.0f);
}

TEST(TfidfTest, TopTokensHonorsLimitAndRanksRareFirst) {
  std::vector<std::vector<std::string>> docs = {
      {"common", "rare1"}, {"common", "rare2"}, {"common"}};
  TfidfModel model(docs);
  // Equal term frequency: the rare token's higher IDF must win.
  auto top = model.TopTokens({"common", "rare1"}, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], "rare1");
}

TEST(TfidfTest, TopTokensDeduplicates) {
  TfidfModel model(std::vector<std::vector<std::string>>{{"x"}});
  auto top = model.TopTokens({"x", "x", "x"}, 10);
  EXPECT_EQ(top.size(), 1u);
}

TEST(TfidfTest, TopTokensDeterministicTies) {
  TfidfModel model(std::vector<std::vector<std::string>>{{"a", "b"}});
  auto t1 = model.TopTokens({"a", "b"}, 2);
  auto t2 = model.TopTokens({"b", "a"}, 2);
  EXPECT_EQ(t1, t2);  // lexicographic tie-break
}

TEST(TfidfTest, RepeatedTokenCountsOncePerDocument) {
  // "a" appears twice in one document: its document frequency is 1, not 2.
  TfidfModel model(std::vector<std::vector<std::string>>{{"a", "a", "b"},
                                                         {"b"}});
  EXPECT_FLOAT_EQ(model.Idf("a"), std::log(3.0f / 2.0f) + 1.0f);
  EXPECT_FLOAT_EQ(model.Idf("b"), 1.0f);
}

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(TfidfTest, IdfIsIdenticalOnEveryExecutor) {
  // Distinct tokens are found in claims of about kGrainTokens tokens; this
  // corpus spans several claims, repeats tokens within documents and holds
  // an empty document (docs[0]). Every pool must give each token the
  // document frequency a per-document set counts.
  Rng rng(27);
  std::vector<std::string> vocabulary;
  for (size_t v = 0; v < 400; ++v) {
    vocabulary.push_back("t" + std::to_string(v));
  }
  std::vector<std::vector<std::string>> docs(600);
  for (size_t i = 1; i < docs.size(); ++i) {
    const size_t length = 1 + rng.NextBelow(80);
    for (size_t t = 0; t < length; ++t) {
      // Skewed draws, so common tokens repeat inside a document.
      const size_t v = rng.NextBelow(1 + rng.NextBelow(vocabulary.size()));
      docs[i].push_back(vocabulary[v]);
    }
  }
  size_t tokens = 0;
  for (const auto& doc : docs) tokens += doc.size();
  ASSERT_GT(tokens, 4 * TfidfModel::kGrainTokens);
  std::map<std::string, size_t> df;
  for (const auto& doc : docs) {
    for (const std::string& token : std::set<std::string>(doc.begin(),
                                                           doc.end())) {
      ++df[token];
    }
  }
  vocabulary.push_back("unseen");

  serve::Executor inline_executor(0);
  serve::Executor four(4);
  const auto fit_on = [&](serve::Executor& executor) {
    const serve::ScopedExecutor scope(executor);
    return TfidfModel(docs);
  };
  const TfidfModel on_inline = fit_on(inline_executor);
  const TfidfModel on_four = fit_on(four);
  const TfidfModel on_default = fit_on(serve::Executor::Default());
  for (const std::string& token : vocabulary) {
    const float idf = std::log((1.0f + static_cast<float>(docs.size())) /
                               (1.0f + static_cast<float>(df[token]))) +
                      1.0f;
    EXPECT_EQ(FloatBits(on_inline.Idf(token)), FloatBits(idf)) << token;
    EXPECT_EQ(FloatBits(on_four.Idf(token)), FloatBits(idf))
        << token << " on Executor(4)";
    EXPECT_EQ(FloatBits(on_default.Idf(token)), FloatBits(idf))
        << token << " on Default()";
  }
}

}  // namespace
}  // namespace dust::text

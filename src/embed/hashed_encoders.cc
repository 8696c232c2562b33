#include "embed/hashed_encoders.h"

#include <algorithm>
#include <cmath>

#include "text/hashing.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace dust::embed {

// Distinct per-family constants so families embed into unrelated spaces.
uint64_t FamilySeedConstant(ModelFamily family) {
  switch (family) {
    case ModelFamily::kFastText:
      return 0xFA57FA57ULL;
    case ModelFamily::kGlove:
      return 0x610E610EULL;
    case ModelFamily::kBert:
      return 0xBE27BE27ULL;
    case ModelFamily::kRoberta:
      return 0x20BE27AULL;
    case ModelFamily::kSbert:
      return 0x5BE275BEULL;
  }
  return 0;
}

HashedEncoder::HashedEncoder(ModelFamily family, const EmbedderConfig& config)
    : family_(family),
      config_(config),
      family_seed_(SplitMix64(config.seed ^ FamilySeedConstant(family))) {
  DUST_CHECK(config_.dim > 0);
}

std::string HashedEncoder::name() const {
  return ModelFamilyName(family_);
}

std::vector<std::string> FamilyFeatures(ModelFamily family,
                                        const std::string& text) {
  using text::CharNgrams;
  using text::SubwordPieces;
  using text::WordTokens;
  std::vector<std::string> features;
  switch (family) {
    case ModelFamily::kFastText: {
      // Words enriched with character 3- and 4-grams (FastText subwords).
      features = WordTokens(text);
      for (auto& g : CharNgrams(text, 3)) features.push_back(std::move(g));
      for (auto& g : CharNgrams(text, 4)) features.push_back(std::move(g));
      break;
    }
    case ModelFamily::kGlove: {
      features = WordTokens(text);
      break;
    }
    case ModelFamily::kBert: {
      // Coarse subwords, no cross-token context (small model).
      features = SubwordPieces(text, 4);
      break;
    }
    case ModelFamily::kRoberta: {
      // Finer subwords plus within-word piece bigrams as context features
      // (kept within word boundaries so the representation is insensitive
      // to cell/token order, like a real contextual encoder's pooled
      // output).
      for (const std::string& word : WordTokens(text)) {
        std::vector<std::string> pieces = SubwordPieces(word, 6);
        for (size_t i = 0; i + 1 < pieces.size(); ++i) {
          features.push_back(pieces[i] + "|" + pieces[i + 1]);
        }
        for (auto& piece : pieces) features.push_back(std::move(piece));
      }
      break;
    }
    case ModelFamily::kSbert: {
      // Sentence-normalized lexical bag: dedup-ish via word tokens only.
      features = WordTokens(text);
      break;
    }
  }
  return features;
}

namespace {

/// Hashes features of `seed` as they are produced.
class FeatureHasher {
 public:
  FeatureHasher(uint64_t seed, std::vector<uint64_t>* out)
      : start_(text::Fnv1a::Seeded(seed)), out_(out) {}

  /// The word itself (text::WordTokens).
  void Word(std::string_view word) {
    text::Fnv1a h = start_;
    AddLower(&h, word);
    out_->push_back(h.Finish());
  }

  /// The n-grams of "<word>" (text::CharNgrams): the whole padded word
  /// when it is no longer than n.
  void CharNgrams(std::string_view word, size_t n) {
    const size_t padded = word.size() + 2;
    const size_t count = padded <= n ? 1 : padded - n + 1;
    const size_t len = std::min(n, padded);
    for (size_t first = 0; first < count; ++first) {
      text::Fnv1a h = start_;
      for (size_t k = first; k < first + len; ++k) h.Add(PaddedByte(word, k));
      out_->push_back(h.Finish());
    }
  }

  /// The pieces of text::SubwordPieces(word, max_piece).
  void Pieces(std::string_view word, size_t max_piece) {
    for (size_t p = 0; p < NumPieces(word, max_piece); ++p) {
      text::Fnv1a h = start_;
      AddPiece(&h, word, max_piece, p);
      out_->push_back(h.Finish());
    }
  }

  /// Piece bigrams "a|b" of consecutive pieces of one word.
  void PieceBigrams(std::string_view word, size_t max_piece) {
    for (size_t p = 0; p + 1 < NumPieces(word, max_piece); ++p) {
      text::Fnv1a h = start_;
      AddPiece(&h, word, max_piece, p);
      h.Add('|');
      AddPiece(&h, word, max_piece, p + 1);
      out_->push_back(h.Finish());
    }
  }

 private:
  static void AddLower(text::Fnv1a* h, std::string_view s) {
    for (char c : s) h->Add(text::LowerWordByte(c));
  }
  /// Byte k of "<" + word + ">", the word lowercased.
  static char PaddedByte(std::string_view word, size_t k) {
    if (k == 0) return '<';
    if (k == word.size() + 1) return '>';
    return text::LowerWordByte(word[k - 1]);
  }
  static size_t NumPieces(std::string_view word, size_t max_piece) {
    return (word.size() + max_piece - 1) / max_piece;
  }
  /// Piece p: bytes [p * max_piece, +max_piece), "##"-prefixed after the
  /// first. A word no longer than max_piece is its own single piece.
  static void AddPiece(text::Fnv1a* h, std::string_view word, size_t max_piece,
                       size_t p) {
    if (p > 0) h->Add("##");
    AddLower(h, word.substr(p * max_piece, max_piece));
  }

  text::Fnv1a start_;
  std::vector<uint64_t>* out_;
};

}  // namespace

void AppendFeatureHashes(ModelFamily family, std::string_view text,
                         uint64_t seed, std::vector<uint64_t>* out) {
  // Every family but FastText yields at most one feature per byte.
  out->reserve(out->size() + text.size());
  FeatureHasher hasher(seed, out);
  using text::ForEachWord;
  switch (family) {
    case ModelFamily::kFastText:
      ForEachWord(text, [&](std::string_view w) { hasher.Word(w); });
      ForEachWord(text, [&](std::string_view w) { hasher.CharNgrams(w, 3); });
      ForEachWord(text, [&](std::string_view w) { hasher.CharNgrams(w, 4); });
      break;
    case ModelFamily::kGlove:
    case ModelFamily::kSbert:
      ForEachWord(text, [&](std::string_view w) { hasher.Word(w); });
      break;
    case ModelFamily::kBert:
      ForEachWord(text, [&](std::string_view w) { hasher.Pieces(w, 4); });
      break;
    case ModelFamily::kRoberta:
      ForEachWord(text, [&](std::string_view w) {
        hasher.PieceBigrams(w, 6);
        hasher.Pieces(w, 6);
      });
      break;
  }
}

la::Vec HashedEncoder::Embed(const std::string& text) const {
  std::vector<uint64_t> features;
  AppendFeatureHashes(family_, text, family_seed_, &features);
  la::Vec v = text::HashesToVector(features, config_.dim);
  if (family_ == ModelFamily::kSbert) {
    // Sub-linear term weighting: re-embed with sqrt(tf) weights.
    // (Approximated by normalizing the bag vector before noise.)
    la::NormalizeInPlace(&v);
  }
  if (config_.noise_level > 0.0f) {
    // Deterministic per-text noise: same text always gets the same noise, so
    // identical tuples still embed identically; distinct texts get
    // independent perturbations proportional to the model's noise level.
    // The noise decays with the number of features: longer inputs are
    // represented more faithfully, emulating the paper's observation that
    // language models understand columns better when given more tokens at
    // once (Sec. 6.2.4). The floor keeps long texts from becoming exact.
    la::NormalizeInPlace(&v);
    Rng rng(text::HashString(text, family_seed_ ^ 0xA015EULL));
    float context = 1.0f + static_cast<float>(features.size()) / 6.0f;
    float effective = config_.noise_level * (0.3f + 0.7f / context);
    float scale = effective / std::sqrt(static_cast<float>(config_.dim));
    for (float& x : v) {
      x += scale * static_cast<float>(rng.NextGaussian());
    }
  }
  la::NormalizeInPlace(&v);
  return v;
}

}  // namespace dust::embed

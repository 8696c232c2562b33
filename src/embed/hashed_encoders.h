// Concrete feature-hashing encoders, one per simulated model family.
#ifndef DUST_EMBED_HASHED_ENCODERS_H_
#define DUST_EMBED_HASHED_ENCODERS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "embed/embedder.h"

namespace dust::embed {

/// Appends text::HashString(f, seed) for every feature f that
/// FamilyFeatures(family, text) yields, in the same order, without building
/// any feature string: the bytes of each feature stream through one
/// text::Fnv1a state. This is the featurization both the frozen encoders
/// and the trainable DUST model run on (DESIGN.md §1).
void AppendFeatureHashes(ModelFamily family, std::string_view text,
                         uint64_t seed, std::vector<uint64_t>* out);

/// Family-specific token features of `text` (word tokens, char n-grams,
/// subword pieces, context bigrams — see each family's description), as
/// strings. The reference AppendFeatureHashes is tested against; encoders
/// hash features without building them.
std::vector<std::string> FamilyFeatures(ModelFamily family,
                                        const std::string& text);

/// Per-family hash-seed mixing constant (distinct embedding spaces).
uint64_t FamilySeedConstant(ModelFamily family);

/// Shared implementation: tokenize per family, feature-hash, add
/// deterministic quality noise, L2-normalize.
class HashedEncoder : public TextEmbedder {
 public:
  HashedEncoder(ModelFamily family, const EmbedderConfig& config);

  la::Vec Embed(const std::string& text) const override;
  size_t dim() const override { return config_.dim; }
  std::string name() const override;

  ModelFamily family() const { return family_; }

 private:
  ModelFamily family_;
  EmbedderConfig config_;
  uint64_t family_seed_;
};

}  // namespace dust::embed

#endif  // DUST_EMBED_HASHED_ENCODERS_H_

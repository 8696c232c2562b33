// 64-bit string hashing and the feature-hashing trick.
//
// The hashed encoders (DESIGN.md §1) replace pre-trained transformer weights
// with deterministic token hashing: each token is mapped to a dimension and a
// sign, and a text is the (weighted) sum of its token features. Different
// "models" use different hash seeds, so their embedding spaces are
// independent — mirroring the fact that BERT and RoBERTa embed text into
// unrelated spaces.
#ifndef DUST_TEXT_HASHING_H_
#define DUST_TEXT_HASHING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dust::text {

/// FNV-1a 64-bit hash, optionally mixed with a seed.
uint64_t HashString(std::string_view s, uint64_t seed = 0);

/// Chains one value into a running hash: HashString over the value's bytes
/// (a double's bit pattern) with `h` as the seed. The staleness, config and
/// lake-state hashes are all built this way and are persisted in snapshot
/// headers and cache keys, so changing the scheme invalidates them.
uint64_t ChainHash(uint64_t h, uint64_t v);
uint64_t ChainHash(uint64_t h, double v);
uint64_t ChainHash(uint64_t h, std::string_view s);

/// Feature-hashes `tokens` into a `dim`-dimensional vector: token t adds
/// weight * sign(t) at index h(t) % dim. Deterministic in (token, seed).
std::vector<float> HashTokensToVector(const std::vector<std::string>& tokens,
                                      size_t dim, uint64_t seed);

/// Weighted variant: tokens[i] contributes weights[i].
std::vector<float> HashTokensToVectorWeighted(
    const std::vector<std::string>& tokens, const std::vector<float>& weights,
    size_t dim, uint64_t seed);

/// Sparse feature view: index/value pairs (duplicate indices summed),
/// used as the frozen feature extractor of the trainable DUST model.
struct SparseVector {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

/// Hashes tokens into a sparse `dim`-dimensional representation with signed
/// values; duplicates are merged. Indices are sorted ascending.
SparseVector HashTokensSparse(const std::vector<std::string>& tokens,
                              size_t dim, uint64_t seed);

}  // namespace dust::text

#endif  // DUST_TEXT_HASHING_H_

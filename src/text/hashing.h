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

/// Incremental FNV-1a 64-bit state, the one HashString runs on: bytes added
/// in pieces hash exactly as their concatenation would, so a featurizer can
/// hash a feature made of several spans without building it as a string.
class Fnv1a {
 public:
  /// The state before any byte, for `seed`.
  static Fnv1a Seeded(uint64_t seed);

  void Add(char c) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  void Add(std::string_view s) {
    for (char c : s) Add(c);
  }

  /// HashString of every byte added so far.
  uint64_t Finish() const;

 private:
  explicit Fnv1a(uint64_t h) : h_(h) {}
  uint64_t h_;
};

/// FNV-1a 64-bit hash, optionally mixed with a seed.
uint64_t HashString(std::string_view s, uint64_t seed = 0);

/// Chains one value into a running hash: HashString over the value's bytes
/// (a double's bit pattern) with `h` as the seed. The staleness, config and
/// lake-state hashes are all built this way and are persisted in snapshot
/// headers and cache keys, so changing the scheme invalidates them.
uint64_t ChainHash(uint64_t h, uint64_t v);
uint64_t ChainHash(uint64_t h, double v);
uint64_t ChainHash(uint64_t h, std::string_view s);

/// Sparse feature view: index/value pairs (duplicate indices summed),
/// used as the frozen feature extractor of the trainable DUST model.
struct SparseVector {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

/// Feature hashing of token hashes h = HashString(token, seed): each adds
/// sign(h) = (h >> 63 ? +1 : -1) at index h % dim. Values are sums of +-1,
/// exact in any order. Dense form.
std::vector<float> HashesToVector(const std::vector<uint64_t>& hashes,
                                  size_t dim);

/// Sparse form of HashesToVector: indices ascending, cancelled (zero)
/// entries dropped. Takes the hashes by value and sorts them in place.
SparseVector HashesToSparse(std::vector<uint64_t> hashes, size_t dim);

/// Reference forms over token strings, kept for tests that check the
/// hash-based forms above against them. HashTokensToVector is
/// HashesToVector of every token's HashString; HashTokensSparse is its
/// sparse form.
std::vector<float> HashTokensToVector(const std::vector<std::string>& tokens,
                                      size_t dim, uint64_t seed);
SparseVector HashTokensSparse(const std::vector<std::string>& tokens,
                              size_t dim, uint64_t seed);

/// Weighted variant of HashTokensToVector: tokens[i] contributes
/// weights[i] * sign at its index.
std::vector<float> HashTokensToVectorWeighted(
    const std::vector<std::string>& tokens, const std::vector<float>& weights,
    size_t dim, uint64_t seed);

}  // namespace dust::text

#endif  // DUST_TEXT_HASHING_H_

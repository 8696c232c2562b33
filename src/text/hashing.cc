#include "text/hashing.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/rng.h"
#include "util/status.h"

namespace dust::text {

uint64_t HashString(std::string_view s, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL ^ SplitMix64(seed);
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // Final avalanche so low bits are well mixed for modulo indexing.
  return SplitMix64(h);
}

uint64_t ChainHash(uint64_t h, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  return HashString(std::string_view(bytes, sizeof(v)), h);
}

uint64_t ChainHash(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  return ChainHash(h, bits);
}

uint64_t ChainHash(uint64_t h, std::string_view s) { return HashString(s, h); }

namespace {
inline void HashOne(std::string_view token, size_t dim, uint64_t seed,
                    uint32_t* index, float* sign) {
  uint64_t h = HashString(token, seed);
  *index = static_cast<uint32_t>(h % dim);
  *sign = (h >> 63) ? 1.0f : -1.0f;
}
}  // namespace

std::vector<float> HashTokensToVector(const std::vector<std::string>& tokens,
                                      size_t dim, uint64_t seed) {
  std::vector<float> weights(tokens.size(), 1.0f);
  return HashTokensToVectorWeighted(tokens, weights, dim, seed);
}

std::vector<float> HashTokensToVectorWeighted(
    const std::vector<std::string>& tokens, const std::vector<float>& weights,
    size_t dim, uint64_t seed) {
  DUST_CHECK(tokens.size() == weights.size());
  DUST_CHECK(dim > 0);
  std::vector<float> out(dim, 0.0f);
  for (size_t i = 0; i < tokens.size(); ++i) {
    uint32_t index;
    float sign;
    HashOne(tokens[i], dim, seed, &index, &sign);
    out[index] += sign * weights[i];
  }
  return out;
}

SparseVector HashTokensSparse(const std::vector<std::string>& tokens,
                              size_t dim, uint64_t seed) {
  DUST_CHECK(dim > 0);
  std::map<uint32_t, float> acc;
  for (const std::string& token : tokens) {
    uint32_t index;
    float sign;
    HashOne(token, dim, seed, &index, &sign);
    acc[index] += sign;
  }
  SparseVector sv;
  sv.indices.reserve(acc.size());
  sv.values.reserve(acc.size());
  for (const auto& [idx, val] : acc) {
    if (val == 0.0f) continue;  // cancelled signs
    sv.indices.push_back(idx);
    sv.values.push_back(val);
  }
  return sv;
}

}  // namespace dust::text

#include "text/hashing.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/rng.h"
#include "util/status.h"

namespace dust::text {

Fnv1a Fnv1a::Seeded(uint64_t seed) {
  return Fnv1a(14695981039346656037ULL ^ SplitMix64(seed));
}

// Final avalanche so low bits are well mixed for modulo indexing.
uint64_t Fnv1a::Finish() const { return SplitMix64(h_); }

uint64_t HashString(std::string_view s, uint64_t seed) {
  Fnv1a state = Fnv1a::Seeded(seed);
  state.Add(s);
  return state.Finish();
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
uint32_t IndexOf(uint64_t h, size_t dim) {
  return static_cast<uint32_t>(h % dim);
}
float SignOf(uint64_t h) { return (h >> 63) ? 1.0f : -1.0f; }

/// h % dim, with a mask in place of the division when dim is a power of
/// two (every configured feature and embedding width).
class IndexMap {
 public:
  explicit IndexMap(size_t dim) : dim_(dim), pow2_((dim & (dim - 1)) == 0) {
    DUST_CHECK(dim > 0);
  }
  uint32_t operator()(uint64_t h) const {
    return static_cast<uint32_t>(pow2_ ? h & (dim_ - 1) : h % dim_);
  }

 private:
  uint64_t dim_;
  bool pow2_;
};
}  // namespace

std::vector<float> HashesToVector(const std::vector<uint64_t>& hashes,
                                  size_t dim) {
  const IndexMap index_of(dim);
  std::vector<float> out(dim, 0.0f);
  for (uint64_t h : hashes) out[index_of(h)] += SignOf(h);
  return out;
}

SparseVector HashesToSparse(std::vector<uint64_t> hashes, size_t dim) {
  const IndexMap index_of(dim);
  // Key = index, then the sign bit: sorting groups each index's terms.
  for (uint64_t& h : hashes) h = (uint64_t{index_of(h)} << 1) | (h >> 63);
  std::sort(hashes.begin(), hashes.end());
  SparseVector sv;
  sv.indices.reserve(hashes.size());
  sv.values.reserve(hashes.size());
  for (size_t i = 0; i < hashes.size();) {
    const uint64_t index = hashes[i] >> 1;
    float value = 0.0f;
    for (; i < hashes.size() && (hashes[i] >> 1) == index; ++i) {
      value += (hashes[i] & 1) ? 1.0f : -1.0f;
    }
    if (value == 0.0f) continue;  // cancelled signs
    sv.indices.push_back(static_cast<uint32_t>(index));
    sv.values.push_back(value);
  }
  return sv;
}

std::vector<float> HashTokensToVector(const std::vector<std::string>& tokens,
                                      size_t dim, uint64_t seed) {
  DUST_CHECK(dim > 0);
  std::vector<float> out(dim, 0.0f);
  for (const std::string& token : tokens) {
    uint64_t h = HashString(token, seed);
    out[IndexOf(h, dim)] += SignOf(h);
  }
  return out;
}

std::vector<float> HashTokensToVectorWeighted(
    const std::vector<std::string>& tokens, const std::vector<float>& weights,
    size_t dim, uint64_t seed) {
  DUST_CHECK(tokens.size() == weights.size());
  DUST_CHECK(dim > 0);
  std::vector<float> out(dim, 0.0f);
  for (size_t i = 0; i < tokens.size(); ++i) {
    uint64_t h = HashString(tokens[i], seed);
    out[IndexOf(h, dim)] += SignOf(h) * weights[i];
  }
  return out;
}

SparseVector HashTokensSparse(const std::vector<std::string>& tokens,
                              size_t dim, uint64_t seed) {
  DUST_CHECK(dim > 0);
  std::map<uint32_t, float> acc;
  for (const std::string& token : tokens) {
    uint64_t h = HashString(token, seed);
    acc[IndexOf(h, dim)] += SignOf(h);
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

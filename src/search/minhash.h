// MinHash sketches for Jaccard estimation between column value sets — one
// of the D3L-style unionability signals (value overlap, Sec. 6.5.1).
#ifndef DUST_SEARCH_MINHASH_H_
#define DUST_SEARCH_MINHASH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dust::search {

/// Fixed-width MinHash sketch of a string set.
class MinHashSketch {
 public:
  /// Zero-width sketch of the empty set (placeholder; estimates 0 against
  /// everything).
  MinHashSketch() = default;

  /// Builds a sketch with `num_hashes` permutations (seeded deterministically).
  MinHashSketch(const std::vector<std::string>& items, size_t num_hashes = 64,
                uint64_t seed = 7777);

  /// Estimated Jaccard similarity with another sketch of the same
  /// configuration. Incomparable sketches — different widths, or zero
  /// width — and empty sets estimate 0.0 rather than aborting or dividing
  /// by zero.
  double EstimateJaccard(const MinHashSketch& other) const;

  size_t num_hashes() const { return mins_.size(); }
  bool empty() const { return empty_; }

 private:
  std::vector<uint64_t> mins_;
  bool empty_ = true;
};

/// Exact Jaccard similarity of two string sets (for tests / small inputs).
double ExactJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b);

}  // namespace dust::search

#endif  // DUST_SEARCH_MINHASH_H_

#include "search/minhash.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "text/hashing.h"
#include "util/rng.h"
#include "util/status.h"

namespace dust::search {

MinHashSketch::MinHashSketch(const std::vector<std::string>& items,
                             size_t num_hashes, uint64_t seed) {
  mins_.assign(num_hashes, std::numeric_limits<uint64_t>::max());
  for (const std::string& item : items) {
    uint64_t base = text::HashString(item, seed);
    // One strong base hash per item, re-mixed per permutation (cheap and
    // adequate for Jaccard estimation).
    for (size_t h = 0; h < num_hashes; ++h) {
      uint64_t value = SplitMix64(base ^ (0x9E3779B97F4A7C15ULL * (h + 1)));
      mins_[h] = std::min(mins_[h], value);
    }
    empty_ = false;
  }
}

double MinHashSketch::EstimateJaccard(const MinHashSketch& other) const {
  // Sketches of mismatched width estimate collision rates of unrelated
  // permutations, and zero-width sketches would divide by zero — both are
  // "no usable signal", reported as zero similarity instead of garbage.
  if (mins_.size() != other.mins_.size() || mins_.empty()) return 0.0;
  if (empty_ || other.empty_) return 0.0;
  size_t equal = 0;
  for (size_t h = 0; h < mins_.size(); ++h) {
    if (mins_[h] == other.mins_[h]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(mins_.size());
}

double ExactJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 0.0;
  size_t intersection = 0;
  for (const std::string& x : sa) {
    if (sb.count(x) > 0) ++intersection;
  }
  size_t uni = sa.size() + sb.size() - intersection;
  return uni == 0 ? 0.0
                  : static_cast<double>(intersection) / static_cast<double>(uni);
}

}  // namespace dust::search

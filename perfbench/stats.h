// Statistics helpers of the repository benchmark: percentiles, the tail
// sample rule, seeded zipf draws, unaccounted-time arithmetic, and the FNV
// digest used to pin Algorithm 1 output. Header-only; tested by
// stats_test.cc.
#ifndef DUST_PERFBENCH_STATS_H_
#define DUST_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace dust::perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median as the mean of the two middle samples for an even count.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Samples strictly greater than the nearest-rank `p` percentile.
inline size_t CountBeyond(const std::vector<double>& samples, double p) {
  const double cut = Percentile(samples, p);
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double s) { return s > cut; }));
}

/// Fewest distinct samples for which the nearest-rank `p` percentile leaves
/// at least `tail` samples beyond it (e.g. 200 for p95 and a tail of 10).
inline size_t SamplesForTail(double p, size_t tail) {
  size_t n = tail;
  while (static_cast<double>(n) -
             std::ceil(p / 100.0 * static_cast<double>(n)) <
         static_cast<double>(tail)) {
    ++n;
  }
  return n;
}

/// Deterministic zipf sampler over ranks [0, n): P(rank) ~ 1/(rank+1)^s.
/// Precomputed CDF + binary search; the same seed repeats the same draws.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double total = 0.0;
    for (size_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Next() {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// Time of a traced request not covered by its layer spans: the total minus
/// the sum of the (non-overlapping) layer durations. Negative when the
/// layers overlap or clocks disagree; callers report it as measured.
inline double UnaccountedMs(double total_ms,
                            const std::vector<double>& layer_ms) {
  double covered = 0.0;
  for (double ms : layer_ms) covered += ms;
  return total_ms - covered;
}

/// FNV-1a over the bytes of `v`, chained from `h` (offset basis when 0).
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  if (h == 0) h = 1469598103934665603ULL;
  unsigned char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace dust::perfbench

#endif  // DUST_PERFBENCH_STATS_H_

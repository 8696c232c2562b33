// Tests of the benchmark's statistics helpers (stats.h). Exits non-zero
// and names the failed check when one fails. Run with ctest in the
// benchmark's build directory.
#include <cstdio>
#include <vector>

#include "perfbench/stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: the helpers must not assume sorted input
}

}  // namespace

int main() {
  using namespace dust::perfbench;

  // Nearest-rank percentiles and the samples beyond them.
  Expect(Percentile(OneTo(100), 50.0) == 50.0, "p50 of 1..100");
  Expect(Percentile(OneTo(100), 95.0) == 95.0, "p95 of 1..100");
  Expect(Percentile(OneTo(100), 100.0) == 100.0, "p100 is the maximum");
  Expect(Percentile(OneTo(3), 0.0) == 1.0, "p0 is the minimum");
  Expect(Percentile({}, 50.0) == 0.0, "empty sample");
  Expect(CountBeyond(OneTo(100), 95.0) == 5, "5 of 100 beyond p95");
  Expect(CountBeyond(OneTo(200), 95.0) == 10, "10 of 200 beyond p95");
  Expect(CountBeyond(std::vector<double>(300, 7.0), 95.0) == 0,
         "ties at the percentile are not beyond it");

  // At least 10 samples beyond p95 takes 200 samples, and 199 fall short.
  Expect(SamplesForTail(95.0, 10) == 200, "p95 needs 200 for a tail of 10");
  Expect(CountBeyond(OneTo(199), 95.0) < 10, "199 samples leave under 10");
  Expect(SamplesForTail(50.0, 10) == 20, "p50 needs 20 for a tail of 10");
  Expect(CountBeyond(OneTo(SamplesForTail(99.0, 10)), 99.0) >= 10,
         "p99 tail rule holds at its own count");

  // Medians and means.
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  Expect(Mean({1.0, 2.0, 6.0}) == 3.0, "mean");

  // Zipf draws repeat from a seed, differ across seeds, stay in range, and
  // favour low ranks.
  ZipfSampler a(4096, 1.1, 42);
  ZipfSampler b(4096, 1.1, 42);
  ZipfSampler c(4096, 1.1, 43);
  bool same = true;
  bool differs = false;
  bool in_range = true;
  std::vector<size_t> counts(4096, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t x = a.Next();
    const size_t y = b.Next();
    same = same && x == y;
    differs = differs || x != c.Next();
    in_range = in_range && x < 4096;
    if (x < 4096) ++counts[x];
  }
  Expect(same, "zipf draws repeat from the same seed");
  Expect(differs, "zipf draws differ across seeds");
  Expect(in_range, "zipf draws stay in [0, n)");
  Expect(counts[0] > counts[1] && counts[1] > counts[100],
         "zipf favours low ranks");

  // Unaccounted time is the total minus the layer spans.
  Expect(UnaccountedMs(10.0, {2.0, 3.0, 4.0}) == 1.0, "unaccounted 1 ms");
  Expect(UnaccountedMs(5.0, {}) == 5.0, "no layers: all unaccounted");
  Expect(UnaccountedMs(5.0, {3.0, 3.0}) == -1.0,
         "overlapping layers read negative");

  // The provenance digest is deterministic and order-sensitive.
  Expect(FnvMix(FnvMix(0, 1), 2) == FnvMix(FnvMix(0, 1), 2), "fnv repeats");
  Expect(FnvMix(FnvMix(0, 1), 2) != FnvMix(FnvMix(0, 2), 1),
         "fnv is order-sensitive");

  if (failures == 0) std::fprintf(stderr, "stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

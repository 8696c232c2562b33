// Shared pieces of the benchmark workloads: run options, the metric report
// printed as the final JSON line, the generated TUS lake, and timing.
#ifndef DUST_PERFBENCH_WORKLOAD_H_
#define DUST_PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/tus_generator.h"
#include "perfbench/stats.h"
#include "table/table.h"
#include "util/rng.h"

namespace dust::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of a traced run; empty skips the export.
  std::string trace_out;
  /// Expected provenance digests in hex, from workloads.json: of the answers
  /// to the workload's fixed queries, and (alg1) of the whole query pool of
  /// this seed. Empty skips the comparison.
  std::string expect_queries_digest;
  std::string expect_pool_digest;
};

/// What one run reports: request counts and metric values by name (units
/// and the full metric lists live in perfbench.cc).
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Counts a failed output check and says on stderr what it was.
  void Fail(const std::string& what);
};

/// The generated lake of a workload: Algorithm 1 and the tuple server both
/// index `tables`; `queries` are the benchmark's 10 query tables.
struct Lake {
  datagen::Benchmark benchmark;
  std::vector<const table::Table*> tables;
  size_t rows = 0;
};

/// The lake is pinned by the workload (generator seed fixed), so the run
/// seed varies only the query stream and figures stay comparable.
Lake MakeLake(size_t unionable_per_query, size_t base_rows,
              size_t distractors_per_base);

/// A seeded row subset of `query` with between `min_rows` and `max_rows`
/// rows (capped at the table's size), in the table's row order.
table::Table RowSubset(const table::Table& query, size_t min_rows,
                       size_t max_rows, Rng* rng, const std::string& name);

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One burst of set-up timings: `index(object)` on fresh objects from
/// `make()` at least 4 times and for at least 1 s (at most 20 times), each
/// time appended to `*seconds`. Returns the last object. Untraced runs time
/// one burst before the measured window and one after it and report the
/// median of both: the host's speed shifts over seconds, and bursts ~20 s
/// apart sample more than one of its states.
template <class Make, class Index>
auto TimeSetup(Make make, Index index, std::vector<double>* seconds) {
  auto object = make();
  const Clock::time_point first = Clock::now();
  for (size_t reps = 1;; ++reps) {
    const Clock::time_point start = Clock::now();
    index(*object);
    seconds->push_back(MsSince(start) / 1000.0);
    if (reps >= 20 || (reps >= 4 && MsSince(first) >= 1000.0)) break;
    object = make();
  }
  return object;
}

inline int64_t Micros(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

/// Logs `digest` and counts a failed check when `expected` (hex) is set
/// and names another digest.
void CheckDigest(const std::string& what, uint64_t digest,
                 const std::string& expected, Report* report);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// printf-style progress line on stderr, stamped with seconds since start.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Logs the measured window: requests, seconds, and samples beyond p95,
/// with a note when there are too few for 10 beyond it.
void LogWindow(const std::string& workload,
               const std::vector<double>& latency_ms, double seconds);

void RunAlg1(const RunOptions& options, size_t unionable_per_query,
             size_t base_rows, size_t distractors_per_base, Report* report);
void RunServe(const RunOptions& options, Report* report);

}  // namespace dust::perfbench

#endif  // DUST_PERFBENCH_WORKLOAD_H_

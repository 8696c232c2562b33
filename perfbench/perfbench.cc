// dust_perfbench — the repository benchmark's measuring process. One
// invocation runs one workload and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. Workloads
// and metrics are described in workloads.json next to this file.
//
//   dust_perfbench --workload alg1_tus|alg1_wide|serve_zipf --seed N
//                  --seconds S --trace 0|1 [--trace-out trace.json]
//                  [--expect-queries-digest HEX] [--expect-pool-digest HEX]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/stats.h"
#include "perfbench/workload.h"

namespace dust::perfbench {

void Report::Fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "output check failed: %s\n", what.c_str());
}

Lake MakeLake(size_t unionable_per_query, size_t base_rows,
              size_t distractors_per_base) {
  datagen::TusConfig config;
  config.num_queries = 10;
  config.unionable_per_query = unionable_per_query;
  config.base_rows = base_rows;
  config.distractors_per_base = distractors_per_base;
  config.seed = 1;
  Lake lake;
  lake.benchmark = datagen::GenerateTus(config);
  for (const datagen::GeneratedTable& t : lake.benchmark.lake) {
    lake.tables.push_back(&t.data);
    lake.rows += t.data.num_rows();
  }
  return lake;
}

table::Table RowSubset(const table::Table& query, size_t min_rows,
                       size_t max_rows, Rng* rng, const std::string& name) {
  const size_t hi = std::min(max_rows, query.num_rows());
  const size_t lo = std::min(min_rows, hi);
  const size_t count = lo + static_cast<size_t>(rng->NextBelow(hi - lo + 1));
  std::vector<size_t> rows =
      rng->SampleWithoutReplacement(query.num_rows(), count);
  std::sort(rows.begin(), rows.end());
  table::Table subset = query.SelectRows(rows);
  subset.set_name(name);
  return subset;
}

void CheckDigest(const std::string& what, uint64_t digest,
                 const std::string& expected, Report* report) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  Log("%s digest %s%s", what.c_str(), hex,
      expected.empty() ? " (no expected digest)" : "");
  if (!expected.empty() && expected != hex) {
    report->Fail(what + " digest " + hex + ", expected " + expected);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Log(const char* format, ...) {
  static const Clock::time_point start = Clock::now();
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  std::fprintf(stderr, "[%7.2f s] %s\n", MsSince(start) / 1000.0, line);
}

void LogWindow(const std::string& workload,
               const std::vector<double>& latency_ms, double seconds) {
  Log("%s: %zu requests in %.2f s, %zu beyond p95", workload.c_str(),
      latency_ms.size(), seconds, CountBeyond(latency_ms, 95.0));
  const size_t wanted = SamplesForTail(95.0, 10);
  if (latency_ms.size() < wanted) {
    Log("%s: note: p95 needs %zu requests for 10 beyond it", workload.c_str(),
        wanted);
  }
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"queries_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p95_ms", "ms"},
    {"ok_frac", "fraction"},   {"peak_rss_mb", "MiB"},
    {"avg_diversity", "cosine"}, {"min_diversity", "cosine"}};

/// Reported by every traced run; a layer the workload does not exercise
/// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"search.ms", "ms"},
    {"search.tables_scored", "count"},
    {"align.column_embed.ms", "ms"},
    {"align.match.ms", "ms"},
    {"align.build_tuples.ms", "ms"},
    {"align.unioned_tuples", "count"},
    {"embed.ms", "ms"},
    {"embed.tuples", "count"},
    {"embed.us_per_tuple", "us"},
    {"diversify.prune.ms", "ms"},
    {"diversify.prune.kept_ratio", "ratio"},
    {"diversify.distance_matrix.ms", "ms"},
    {"diversify.distance_matrix.mb", "MiB"},
    {"diversify.nn_chain.ms", "ms"},
    {"diversify.cut_medoid.ms", "ms"},
    {"diversify.rerank.ms", "ms"},
    {"diversify.candidates", "count"},
    {"core.unaccounted_ms", "ms"},
    {"serve.cache.hit_rate", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.cache_probe.ms", "ms"},
    {"serve.queue_wait.ms", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.batches", "count"},
    {"search.encode.ms", "ms"},
    {"search.index_search.ms", "ms"},
    {"search.fuse.ms", "ms"},
    {"index.vectors_scanned", "count"},
    {"trace.e2e_ms", "ms"},
    {"trace.untraced_ms", "ms"},
    {"trace.overhead_pct", "%"}};

/// Prints the result line. Returns false when the workload left an
/// end-to-end metric unset or set a metric no list names.
template <size_t N>
bool PrintJson(const Report& report, const MetricSpec (&specs)[N],
               bool pad_missing) {
  size_t found = 0;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = report.values.find(spec.name);
    if (it == report.values.end() && !pad_missing) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      return false;
    }
    found += it != report.values.end();
    // JSON has no NaN/Inf; a metric that could not be measured reads 0.
    const double value = it != report.values.end() && std::isfinite(it->second)
                             ? it->second
                             : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " + number +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  if (found != report.values.size()) {
    std::fprintf(stderr, "a workload set a metric outside the lists\n");
    return false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dust_perfbench --workload alg1_tus|alg1_wide|serve_zipf"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]"
               " [--expect-queries-digest HEX] [--expect-pool-digest HEX]\n");
  return 2;
}

}  // namespace
}  // namespace dust::perfbench

int main(int argc, char** argv) {
  using namespace dust::perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--expect-queries-digest") {
      options.expect_queries_digest = value;
    } else if (flag == "--expect-pool-digest") {
      options.expect_pool_digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();

  Log("%s: seed %llu, %.3g s, trace %d", options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  Report report;
  if (options.workload == "alg1_tus") {
    RunAlg1(options, 8, 1000, 2, &report);
  } else if (options.workload == "alg1_wide") {
    RunAlg1(options, 1000, 40, 50, &report);
  } else if (options.workload == "serve_zipf") {
    RunServe(options, &report);
  } else {
    return Usage();
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "no request completed in the measured window\n");
    return 1;
  }
  const bool printed = options.trace ? PrintJson(report, kPerLayer, true)
                                     : PrintJson(report, kEndToEnd, false);
  return printed ? 0 : 1;
}

// dust_cli — run diverse unionable tuple search over a directory of CSVs.
//
//   dust_cli --lake <dir> --query <file.csv> [--k 30] [--tables 10]
//            [--engine starmie|d3l] [--index flat|ivf|hnsw|sharded:...]
//            [--shards N] [--hnsw-m N] [--hnsw-ef N]
//            [--shortlist N] [--out result.csv] [--p 2] [--s 2500]
//            [--save-index snap.bin | --load-index snap.bin]
//
// Indexes every *.csv in the lake directory, runs Algorithm 1 for the query
// table, prints a summary and (optionally) writes the k diverse tuples.
//
// Offline/online split: `--save-index` persists the built lake index as a
// snapshot (and, without --query, exits after building); `--load-index`
// restores it so serving answers queries without re-embedding the lake:
//
//   dust_cli --lake data/lake --index hnsw --shortlist 50 --save-index s.bin
//   dust_cli --lake data/lake --index hnsw --shortlist 50
//            --load-index s.bin --query q.csv
//
// Sharded lakes: `--shards N` partitions the shortlist index across N
// child indexes of the --index type with scatter-gather search (equivalent
// to --index sharded:<type>:N; spell the full spec for hash placement).
//
// Query serving: `--serve` builds a tuple-level index over the lake, starts
// an async QueryServer (shared thread-pool executor, bounded admission
// queue, micro-batching into single SearchBatch calls), and drives it with
// a synthetic closed-loop client to report QPS and tail latency:
//
//   dust_cli --lake data/lake --query q.csv --serve --threads 8
//            --batch-window-us 2000 --clients 16 --requests 2000 --k 30
//
// Every served result is checked bit-identical to the sequential
// TupleSearch::SearchTuplesChecked baseline; a mismatch fails the run.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "embed/tuple_encoder.h"
#include "index/vector_index.h"
#include "io/index_io.h"
#include "net/router_index.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "search/tuple_search.h"
#include "serve/query_server.h"
#include "shard/sharded_index.h"
#include "table/csv.h"
#include "util/stopwatch.h"

using namespace dust;

namespace {

struct CliOptions {
  std::string lake_dir;
  std::string query_path;
  std::string out_path;
  std::string save_index_path;
  std::string load_index_path;
  std::string engine = "starmie";
  std::string index = "flat";
  la::Metric metric = la::Metric::kCosine;
  size_t shortlist = 0;
  size_t shards = 0;
  size_t hnsw_m = 0;
  size_t hnsw_ef = 0;
  size_t k = 30;
  size_t tables = 10;
  size_t p = 2;
  size_t s = 2500;
  bool serve = false;
  size_t threads = 4;
  size_t batch_window_us = 2000;
  size_t batch_max = 32;
  size_t queue_capacity = 256;
  size_t clients = 4;
  size_t requests = 200;
  // Serving-hardening knobs; defaults come from the pipeline-level serving
  // config so every entry point agrees on them.
  size_t cache_entries = core::ServingConfig{}.cache_entries;
  size_t cache_bytes = core::ServingConfig{}.cache_bytes;
  std::string metrics_out_path;
  // Distributed serving (PR 7): route queries to remote dust_shardd
  // processes instead of an in-process index.
  std::string router_endpoints;     // comma-separated host:port list
  std::string save_tuple_index_path;  // build the tuple index, save, exit
  std::string dump_hits_path;       // write baseline hits, bit-exact
  // Mutable lakes (PR 10): tombstoned deletes and incremental ingest
  // against a live tuple index, applied before any query is served.
  std::string delete_tables;        // comma-separated lake table names
  std::string add_tables;           // comma-separated CSV paths to ingest
  bool compact = false;             // rewrite the index without tombstones
  std::string load_tuple_index_path;  // serve from a saved tuple index
  bool allow_partial = false;
  size_t deadline_ms = 5000;
  size_t rpc_retries = 1;
  // Retrieval cascade (PR 8): candidate prefilters ahead of the vector
  // shortlist, for both the pipeline and --serve paths.
  bool cascade = false;
  std::string cascade_stages;  // raw --cascade-stages value
  bool cascade_prefilter = true;
  bool cascade_prescreen = true;
  // Tracing / slow-query log (PR 9). trace_sample_rate < 0 means "unset":
  // ParseArgs resolves it to 1.0 when --trace-out is given, else 0.0.
  std::string trace_out_path;
  double trace_sample_rate = -1.0;
  double slow_query_ms = -1.0;  // < 0 disables the slow-query log
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: dust_cli --lake <dir> --query <file.csv> [--k N] [--tables N]\n"
      "                [--engine starmie|d3l]\n"
      "                [--index flat|ivf|hnsw|sharded:<type>:<n>]\n"
      "                [--shards N] [--hnsw-m N] [--hnsw-ef N]\n"
      "                [--metric cosine|euclidean|manhattan]\n"
      "                [--shortlist N] [--out result.csv] [--p N] [--s N]\n"
      "                [--save-index <snapshot> | --load-index <snapshot>]\n"
      "                [--cascade [--cascade-stages prefilter,prescreen]]\n"
      "                [--serve [--threads N] [--batch-window-us U]\n"
      "                 [--batch-max N] [--queue N] [--clients N]\n"
      "                 [--requests N] [--cache N] [--cache-bytes N]\n"
      "                 [--metrics-out metrics.txt]\n"
      "                 [--trace-out trace.json] [--trace-sample R]\n"
      "                 [--slow-query-ms MS]\n"
      "                 [--router host:port,... [--allow-partial]\n"
      "                  [--deadline-ms N] [--rpc-retries N]]\n"
      "                 [--dump-hits hits.txt]\n"
      "                 [--load-tuple-index <file>]\n"
      "                 [--delete-tables a,b] [--add-tables x.csv,y.csv]\n"
      "                 [--compact]]\n"
      "                [--save-tuple-index <file>]\n"
      "       --serve starts an async tuple-search server over the lake and\n"
      "       drives it with a synthetic closed-loop client (--clients\n"
      "       concurrent clients, --requests total queries), printing QPS\n"
      "       and p50/p95/p99 latency; results are verified bit-identical\n"
      "       to sequential search\n"
      "       --cache bounds the LRU result cache in entries (0 disables;\n"
      "       hits resolve without entering the batch queue); --cache-bytes\n"
      "       bounds it in bytes; --metrics-out writes the server's metrics\n"
      "       registry as Prometheus-style name/value text\n"
      "       --trace-out writes every recorded span as Chrome trace-event\n"
      "       JSON (load in chrome://tracing or ui.perfetto.dev) after the\n"
      "       run; --trace-sample sets the fraction of requests traced in\n"
      "       [0,1] (default 1 with --trace-out, else 0); --slow-query-ms\n"
      "       logs queries at or above MS end-to-end at WARN with their\n"
      "       trace id and span tree (0 logs every request)\n"
      "       --router fans --serve queries out to remote dust_shardd\n"
      "       processes (endpoints in shard order) instead of building an\n"
      "       in-process index; --allow-partial tolerates parity mismatches\n"
      "       only while the router reports degraded (partial) results;\n"
      "       --deadline-ms bounds each shard RPC, --rpc-retries bounds\n"
      "       retries of transient failures\n"
      "       --dump-hits writes the baseline hit list (by table name) with\n"
      "       bit-exact similarities for cross-process comparison\n"
      "       --delete-tables tombstones the named lake tables (names or\n"
      "       *.csv filenames) before serving; --add-tables ingests extra\n"
      "       CSV files into the live index; --compact rewrites the index\n"
      "       without tombstones after mutations; every mutation bumps the\n"
      "       lake-state hash, so cached results from the pre-mutation lake\n"
      "       can never be served\n"
      "       --load-tuple-index serves from a saved tuple index instead of\n"
      "       re-embedding the lake (the CSVs are still read for row\n"
      "       alignment); with --serve, --save-tuple-index persists the\n"
      "       post-mutation index\n"
      "       --save-tuple-index builds the tuple-level index (honoring\n"
      "       --index/--shards) and saves it for dust_shardd to load\n"
      "       --save-index without --query builds the lake index and exits;\n"
      "       --load-index serves queries from a saved snapshot without\n"
      "       re-embedding the lake\n"
      "       --shards N partitions the shortlist index across N shards of\n"
      "       the --index type (scatter-gather search); --hnsw-m/--hnsw-ef\n"
      "       tune the HNSW graph degree and query beam width\n"
      "       --metric selects the tuple distance delta(.) used for\n"
      "       diversification; table search scoring is always cosine\n"
      "       (Starmie-style embedding similarity)\n"
      "       --cascade enables the staged retrieval cascade (type\n"
      "       prefilter -> MinHash prescreen -> vector shortlist -> exact\n"
      "       rerank) for the starmie engine, in both pipeline and --serve\n"
      "       modes; --cascade-stages restricts the prefilter layers to a\n"
      "       comma-separated subset of {prefilter, prescreen}\n");
}

/// Parses a non-negative integer: digits only (strtoul alone would skip
/// whitespace and wrap signed values like " -5" to a huge size_t), and no
/// silent saturation — a value past ULONG_MAX makes strtoul clamp and set
/// ERANGE, which must be rejected as overflow (mirroring ParseShardCount's
/// bounds discipline), not accepted as a huge-but-valid count.
bool ParseSize(const char* flag, const char* value, size_t* out) {
  bool digits_only = *value != '\0';
  for (const char* p = value; *p; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) digits_only = false;
  }
  if (!digits_only) {
    std::fprintf(stderr, "%s expects a non-negative number, got: %s\n", flag,
                 value);
    return false;
  }
  errno = 0;
  const unsigned long parsed = std::strtoul(value, nullptr, 10);
  if (errno == ERANGE) {
    std::fprintf(stderr, "%s value overflows: %s\n", flag, value);
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

/// Parses a finite double with no trailing junk; range checks are the
/// caller's. " 1.5x" and overflowing values are rejected, not truncated.
bool ParseDouble(const char* flag, const char* value, double* out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "%s expects a finite number, got: %s\n", flag, value);
    return false;
  }
  *out = parsed;
  return true;
}

/// Splits "a,b,c" into {"a","b","c"}; empty segments are dropped.
std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    if (end > pos) parts.push_back(list.substr(pos, end - pos));
    pos = end + 1;
  }
  return parts;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--lake" && (value = next())) {
      options->lake_dir = value;
    } else if (arg == "--query" && (value = next())) {
      options->query_path = value;
    } else if (arg == "--out" && (value = next())) {
      options->out_path = value;
    } else if (arg == "--save-index" && (value = next())) {
      options->save_index_path = value;
    } else if (arg == "--load-index" && (value = next())) {
      options->load_index_path = value;
    } else if (arg == "--engine" && (value = next())) {
      options->engine = value;
    } else if (arg == "--index" && (value = next())) {
      options->index = value;
    } else if (arg == "--metric" && (value = next())) {
      // MetricFromName rejects unknown spellings instead of silently
      // falling back to cosine; a typo'd metric must not serve wrong
      // distances.
      Result<la::Metric> metric = la::MetricFromName(value);
      if (!metric.ok()) {
        std::fprintf(stderr, "bad --metric: %s\n",
                     metric.status().ToString().c_str());
        return false;
      }
      options->metric = metric.value();
    } else if (arg == "--shortlist" && (value = next())) {
      if (!ParseSize("--shortlist", value, &options->shortlist)) return false;
    } else if (arg == "--shards" && (value = next())) {
      if (!ParseSize("--shards", value, &options->shards)) return false;
      if (options->shards == 0) {
        // An explicit 0 is a contradiction, not "unsharded" — reject it
        // instead of silently dropping the flag.
        std::fprintf(stderr, "--shards must be >= 1 (omit for unsharded)\n");
        return false;
      }
    } else if (arg == "--hnsw-m" && (value = next())) {
      if (!ParseSize("--hnsw-m", value, &options->hnsw_m)) return false;
      if (options->hnsw_m < 2) {
        std::fprintf(stderr,
                     "--hnsw-m must be >= 2 (graph degree), got: %s\n", value);
        return false;
      }
    } else if (arg == "--hnsw-ef" && (value = next())) {
      if (!ParseSize("--hnsw-ef", value, &options->hnsw_ef)) return false;
      if (options->hnsw_ef < 1) {
        std::fprintf(stderr,
                     "--hnsw-ef must be >= 1 (query beam width), got: %s\n",
                     value);
        return false;
      }
    } else if (arg == "--cascade") {
      options->cascade = true;
    } else if (arg == "--cascade-stages" && (value = next())) {
      options->cascade_stages = value;
    } else if (arg == "--serve") {
      options->serve = true;
    } else if (arg == "--threads" && (value = next())) {
      if (!ParseSize("--threads", value, &options->threads)) return false;
    } else if (arg == "--batch-window-us" && (value = next())) {
      if (!ParseSize("--batch-window-us", value, &options->batch_window_us)) {
        return false;
      }
    } else if (arg == "--batch-max" && (value = next())) {
      if (!ParseSize("--batch-max", value, &options->batch_max)) return false;
      if (options->batch_max == 0) {
        std::fprintf(stderr, "--batch-max must be >= 1\n");
        return false;
      }
    } else if (arg == "--queue" && (value = next())) {
      if (!ParseSize("--queue", value, &options->queue_capacity)) return false;
      if (options->queue_capacity == 0) {
        std::fprintf(stderr, "--queue must be >= 1\n");
        return false;
      }
    } else if (arg == "--clients" && (value = next())) {
      if (!ParseSize("--clients", value, &options->clients)) return false;
      if (options->clients == 0) {
        std::fprintf(stderr, "--clients must be >= 1\n");
        return false;
      }
    } else if (arg == "--requests" && (value = next())) {
      if (!ParseSize("--requests", value, &options->requests)) return false;
      if (options->requests == 0) {
        // A 0-request serve run would "succeed" vacuously — the parity
        // check passes because nothing was checked. Reject it up front.
        std::fprintf(stderr, "--requests must be >= 1\n");
        return false;
      }
    } else if (arg == "--cache" && (value = next())) {
      if (!ParseSize("--cache", value, &options->cache_entries)) return false;
    } else if (arg == "--cache-bytes" && (value = next())) {
      if (!ParseSize("--cache-bytes", value, &options->cache_bytes)) {
        return false;
      }
    } else if (arg == "--metrics-out" && (value = next())) {
      options->metrics_out_path = value;
    } else if (arg == "--trace-out" && (value = next())) {
      options->trace_out_path = value;
    } else if (arg == "--trace-sample" && (value = next())) {
      if (!ParseDouble("--trace-sample", value, &options->trace_sample_rate)) {
        return false;
      }
      if (!obs::ValidSampleRate(options->trace_sample_rate)) {
        std::fprintf(stderr,
                     "--trace-sample must be a rate within [0, 1], got: %s\n",
                     value);
        return false;
      }
    } else if (arg == "--slow-query-ms" && (value = next())) {
      if (!ParseDouble("--slow-query-ms", value, &options->slow_query_ms)) {
        return false;
      }
      if (options->slow_query_ms < 0.0) {
        std::fprintf(stderr, "--slow-query-ms must be >= 0, got: %s\n", value);
        return false;
      }
    } else if (arg == "--router" && (value = next())) {
      options->router_endpoints = value;
    } else if (arg == "--save-tuple-index" && (value = next())) {
      options->save_tuple_index_path = value;
    } else if (arg == "--load-tuple-index" && (value = next())) {
      options->load_tuple_index_path = value;
    } else if (arg == "--delete-tables" && (value = next())) {
      options->delete_tables = value;
    } else if (arg == "--add-tables" && (value = next())) {
      options->add_tables = value;
    } else if (arg == "--compact") {
      options->compact = true;
    } else if (arg == "--dump-hits" && (value = next())) {
      options->dump_hits_path = value;
    } else if (arg == "--allow-partial") {
      options->allow_partial = true;
    } else if (arg == "--deadline-ms" && (value = next())) {
      if (!ParseSize("--deadline-ms", value, &options->deadline_ms)) {
        return false;
      }
      if (options->deadline_ms == 0) {
        std::fprintf(stderr, "--deadline-ms must be >= 1\n");
        return false;
      }
    } else if (arg == "--rpc-retries" && (value = next())) {
      if (!ParseSize("--rpc-retries", value, &options->rpc_retries)) {
        return false;
      }
    } else if (arg == "--k" && (value = next())) {
      if (!ParseSize("--k", value, &options->k)) return false;
    } else if (arg == "--tables" && (value = next())) {
      if (!ParseSize("--tables", value, &options->tables)) return false;
    } else if (arg == "--p" && (value = next())) {
      if (!ParseSize("--p", value, &options->p)) return false;
    } else if (arg == "--s" && (value = next())) {
      if (!ParseSize("--s", value, &options->s)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->engine != "starmie" && options->engine != "d3l") {
    // The pipeline routes anything that is not exactly "d3l" to starmie;
    // reject typos here instead of silently running the wrong engine.
    std::fprintf(stderr, "unknown --engine: %s\n", options->engine.c_str());
    return false;
  }
  if (!index::IsKnownIndexType(options->index)) {
    // Reject here for a usage error instead of the factory's DUST_CHECK
    // abort deep inside IndexLake.
    std::fprintf(stderr, "unknown --index type: %s\n", options->index.c_str());
    return false;
  }
  if (!options->cascade_stages.empty() && !options->cascade) {
    // A stage subset without the cascade itself is a contradiction —
    // reject it instead of silently running flat.
    std::fprintf(stderr, "--cascade-stages requires --cascade\n");
    return false;
  }
  if (!options->cascade_stages.empty()) {
    options->cascade_prefilter = false;
    options->cascade_prescreen = false;
    for (const std::string& stage : SplitCommas(options->cascade_stages)) {
      if (stage == "prefilter") {
        options->cascade_prefilter = true;
      } else if (stage == "prescreen") {
        options->cascade_prescreen = true;
      } else {
        std::fprintf(stderr,
                     "unknown cascade stage: %s (expected a comma-separated "
                     "subset of: prefilter, prescreen)\n",
                     stage.c_str());
        return false;
      }
    }
  }
  if (options->cascade && options->engine != "starmie") {
    std::fprintf(stderr,
                 "--cascade requires the starmie engine (the d3l engine has "
                 "no staged retrieval path)\n");
    return false;
  }
  if (options->shards > 0 && shard::IsShardedSpec(options->index)) {
    std::fprintf(stderr,
                 "--shards cannot wrap the already-sharded --index %s\n",
                 options->index.c_str());
    return false;
  }
  if (options->shards > 0 &&
      !index::IsKnownIndexType("sharded:" + options->index + ":" +
                               std::to_string(options->shards))) {
    // The composed spec must pass the same validation a literal
    // "sharded:..." --index would (e.g. the 2^16 shard-count cap).
    std::fprintf(stderr, "--shards %zu is out of range\n", options->shards);
    return false;
  }
  if (options->serve) {
    if (options->engine != "starmie") {
      std::fprintf(stderr, "--serve supports only the starmie engine\n");
      return false;
    }
    if (!options->save_index_path.empty() ||
        !options->load_index_path.empty() || !options->out_path.empty()) {
      std::fprintf(stderr,
                   "--serve is exclusive with --save-index/--load-index/"
                   "--out\n");
      return false;
    }
    if (options->query_path.empty()) {
      std::fprintf(stderr, "--serve needs --query for the client workload\n");
      return false;
    }
    if (options->metric != la::Metric::kCosine) {
      // The tuple index scores with cosine similarity by construction;
      // accepting another metric here would silently serve cosine results
      // under the wrong label.
      std::fprintf(stderr,
                   "--serve scores tuples with cosine similarity only; "
                   "--metric %s is not supported\n",
                   la::MetricName(options->metric));
      return false;
    }
    if (options->shortlist > 0) {
      std::fprintf(stderr,
                   "--shortlist is ignored by --serve (tuple search always "
                   "fetches per-query candidates)\n");
    }
  }
  if (!options->metrics_out_path.empty() && !options->serve) {
    std::fprintf(stderr, "--metrics-out requires --serve\n");
    return false;
  }
  if (!options->trace_out_path.empty() && !options->serve) {
    std::fprintf(stderr, "--trace-out requires --serve\n");
    return false;
  }
  if (options->trace_sample_rate >= 0.0 && !options->serve) {
    std::fprintf(stderr, "--trace-sample requires --serve\n");
    return false;
  }
  if (options->slow_query_ms >= 0.0 && !options->serve) {
    std::fprintf(stderr, "--slow-query-ms requires --serve\n");
    return false;
  }
  if (options->trace_sample_rate < 0.0) {
    // Asking for a trace file implies tracing everything; otherwise the
    // sampler stays off and tracing costs nothing.
    options->trace_sample_rate = options->trace_out_path.empty() ? 0.0 : 1.0;
  }
  if (!options->router_endpoints.empty() && !options->serve) {
    std::fprintf(stderr, "--router requires --serve\n");
    return false;
  }
  if (options->allow_partial && options->router_endpoints.empty()) {
    std::fprintf(stderr, "--allow-partial requires --router\n");
    return false;
  }
  if (!options->dump_hits_path.empty() && !options->serve) {
    std::fprintf(stderr, "--dump-hits requires --serve\n");
    return false;
  }
  const bool mutations = !options->delete_tables.empty() ||
                         !options->add_tables.empty() || options->compact;
  if (mutations && !options->serve) {
    std::fprintf(stderr,
                 "--delete-tables/--add-tables/--compact require --serve\n");
    return false;
  }
  if (mutations && !options->router_endpoints.empty()) {
    // The router view is read-only: removals happen shard-side, so a
    // routed lake cannot be mutated from this process.
    std::fprintf(stderr,
                 "--delete-tables/--add-tables/--compact cannot be used "
                 "with --router (shards own their tombstones)\n");
    return false;
  }
  if (!options->load_tuple_index_path.empty()) {
    if (!options->serve || !options->router_endpoints.empty()) {
      std::fprintf(stderr,
                   "--load-tuple-index requires --serve without --router\n");
      return false;
    }
  }
  if (!options->save_tuple_index_path.empty()) {
    if (!options->save_index_path.empty() ||
        !options->load_index_path.empty()) {
      std::fprintf(stderr,
                   "--save-tuple-index is exclusive with "
                   "--save-index/--load-index\n");
      return false;
    }
    if (options->serve && !options->router_endpoints.empty()) {
      std::fprintf(stderr, "--save-tuple-index cannot snapshot a --router\n");
      return false;
    }
    if (options->engine != "starmie") {
      std::fprintf(stderr, "--save-tuple-index needs the starmie engine\n");
      return false;
    }
  }
  if (!options->save_index_path.empty() && !options->load_index_path.empty()) {
    std::fprintf(stderr, "--save-index and --load-index are exclusive\n");
    return false;
  }
  if ((!options->save_index_path.empty() ||
       !options->load_index_path.empty()) &&
      options->engine == "d3l") {
    std::fprintf(stderr, "the d3l engine does not support index snapshots\n");
    return false;
  }
  // --query is optional only for a build-and-save invocation.
  bool build_only = (!options->save_index_path.empty() ||
                     !options->save_tuple_index_path.empty()) &&
                    options->query_path.empty();
  return !options->lake_dir.empty() &&
         (build_only || !options->query_path.empty()) && options->k > 0;
}

/// The tuple-index configuration shared by --serve, --save-tuple-index, and
/// the shard servers that load the saved artifact: every entry point must
/// agree on these knobs or bit-parity across processes is off the table.
/// The cascade knobs shared by the pipeline and --serve entry points.
search::cascade::CascadeConfig MakeCascadeConfig(const CliOptions& options) {
  search::cascade::CascadeConfig config;
  config.enabled = options.cascade;
  config.prefilter = options.cascade_prefilter;
  config.prescreen = options.cascade_prescreen;
  return config;
}

search::TupleSearchConfig MakeTupleConfig(const CliOptions& options) {
  search::TupleSearchConfig config;
  config.index_type = options.index;
  if (options.shards > 0) {
    config.index_type =
        "sharded:" + options.index + ":" + std::to_string(options.shards);
  }
  config.index_options.hnsw_m = options.hnsw_m;
  config.index_options.hnsw_ef_search = options.hnsw_ef;
  config.cascade = MakeCascadeConfig(options);
  return config;
}

std::shared_ptr<embed::PretrainedTupleEncoder> MakeTupleEncoder() {
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 64;
  return std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));
}

/// Writes hits as "table-name,row,<hex double bits>" lines — the similarity
/// is dumped as its exact bit pattern, so `cmp` between two runs proves
/// bit-identical results with no formatting round-trip in the way. Hits are
/// keyed by table NAME, not index, so a dump taken before compaction (or
/// against a larger lake directory) compares equal to one taken after the
/// tombstoned tables are physically gone.
bool DumpHitsFile(const std::string& path, const search::TupleSearch& search,
                  const std::vector<search::TupleHit>& hits) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const search::TupleHit& hit : hits) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(hit.similarity));
    std::memcpy(&bits, &hit.similarity, sizeof(bits));
    std::fprintf(f, "%s,%zu,%016llx\n",
                 search.catalog().slot(hit.ref.table_index).name.c_str(),
                 hit.ref.row_index, static_cast<unsigned long long>(bits));
  }
  return std::fclose(f) == 0;
}

/// Applies --delete-tables / --add-tables / --compact to the live search
/// object, printing a one-line summary per mutation. Delete names accept
/// either the canonical table name ("b") or the lake filename ("b.csv").
/// Returns false (after printing the error) if any mutation fails.
bool ApplyLakeMutations(const CliOptions& options,
                        search::TupleSearch* search) {
  for (const std::string& requested : SplitCommas(options.delete_tables)) {
    std::string name = requested;
    const size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && name.substr(dot) == ".csv") {
      name = name.substr(0, dot);
    }
    const size_t before = search->lake_live_vectors();
    Status removed = search->RemoveTable(name);
    if (!removed.ok()) {
      std::fprintf(stderr, "cannot delete table %s: %s\n", requested.c_str(),
                   removed.ToString().c_str());
      return false;
    }
    std::printf("deleted table %s (%zu tuples tombstoned)\n", name.c_str(),
                before - search->lake_live_vectors());
  }
  for (const std::string& path : SplitCommas(options.add_tables)) {
    auto loaded = table::ReadCsvFile(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot add table %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return false;
    }
    table::Table t = std::move(loaded).value();
    t.DropAllNullColumns();
    if (t.num_rows() == 0 || t.num_columns() == 0) {
      std::fprintf(stderr, "cannot add table %s: no usable rows\n",
                   path.c_str());
      return false;
    }
    Status added = search->AddTable(t);
    if (!added.ok()) {
      std::fprintf(stderr, "cannot add table %s: %s\n", path.c_str(),
                   added.ToString().c_str());
      return false;
    }
    std::printf("added table %s (%zu tuples)\n", t.name().c_str(),
                t.num_rows());
  }
  if (options.compact) {
    const size_t dropped = search->lake_tombstoned_vectors();
    Status compacted = search->CompactIndex();
    if (!compacted.ok()) {
      std::fprintf(stderr, "cannot compact index: %s\n",
                   compacted.ToString().c_str());
      return false;
    }
    std::printf("compacted index: %zu tombstoned tuples dropped\n", dropped);
  }
  if (!options.delete_tables.empty() || !options.add_tables.empty()) {
    std::printf(
        "lake after mutations: %zu live / %zu tombstoned tuples, "
        "%llu mutations (lake-state hash %016llx)\n",
        search->lake_live_vectors(), search->lake_tombstoned_vectors(),
        static_cast<unsigned long long>(search->catalog().mutations()),
        static_cast<unsigned long long>(search->LakeStateHash()));
  }
  return true;
}

/// --save-tuple-index: builds the tuple-level index over the lake (the same
/// one --serve would build) and persists it with io::SaveIndex so shard
/// servers (dust_shardd) can load it. Returns the process exit code.
int RunSaveTupleIndex(const CliOptions& options,
                      const std::vector<const table::Table*>& lake) {
  search::TupleSearch search(MakeTupleEncoder(), MakeTupleConfig(options));
  Stopwatch watch;
  search.IndexLake(lake);
  std::printf("indexed %zu lake tuples in %.3fs\n", search.num_indexed(),
              watch.Seconds());
  Status saved =
      io::SaveIndex(*search.lake_index(), options.save_tuple_index_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot save tuple index: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote tuple index %s (%s)\n",
              options.save_tuple_index_path.c_str(),
              search.lake_index()->name().c_str());
  return 0;
}

/// --serve: builds a tuple-level index over the lake (or, with --router,
/// connects to remote dust_shardd shards), starts the async QueryServer,
/// and drives it with a synthetic closed-loop client (each of --clients
/// threads keeps exactly one request in flight until --requests queries
/// have been served). Every response is verified bit-identical to the
/// sequential SearchTuplesChecked baseline. Returns the process exit code.
int RunServeMode(const CliOptions& options,
                 const std::vector<const table::Table*>& lake,
                 const table::Table& query) {
  search::TupleSearch search(MakeTupleEncoder(), MakeTupleConfig(options));
  net::RouterIndex* router = nullptr;  // owned by `search` once installed
  Stopwatch index_watch;
  if (!options.router_endpoints.empty()) {
    net::RouterOptions router_options;
    router_options.deadline_ms = static_cast<int>(options.deadline_ms);
    router_options.max_attempts = 1 + static_cast<int>(options.rpc_retries);
    Result<std::unique_ptr<net::RouterIndex>> connected =
        net::RouterIndex::Connect(SplitCommas(options.router_endpoints),
                                  router_options);
    if (!connected.ok()) {
      std::fprintf(stderr, "cannot connect router: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<net::RouterIndex> owned = std::move(connected).value();
    router = owned.get();
    Status used = search.UseIndex(std::move(owned), lake);
    if (!used.ok()) {
      std::fprintf(stderr, "router does not match the lake: %s\n",
                   used.ToString().c_str());
      return 1;
    }
    std::printf("router over %zu shards (%zu tuples) ready in %.3fs\n",
                router->num_shards(), search.num_indexed(),
                index_watch.Seconds());
  } else if (!options.load_tuple_index_path.empty()) {
    Result<std::unique_ptr<index::VectorIndex>> loaded =
        io::LoadIndex(options.load_tuple_index_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load tuple index: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    Status used = search.UseIndex(std::move(loaded).value(), lake);
    if (!used.ok()) {
      std::fprintf(stderr, "tuple index does not match the lake: %s\n",
                   used.ToString().c_str());
      return 1;
    }
    std::printf("loaded tuple index %s (%zu tuples) in %.3fs\n",
                options.load_tuple_index_path.c_str(), search.num_indexed(),
                index_watch.Seconds());
  } else {
    search.IndexLake(lake);
    std::printf("indexed %zu lake tuples in %.3fs\n", search.num_indexed(),
                index_watch.Seconds());
  }

  // Lake mutations happen before any query is in flight (mutations are not
  // synchronized against concurrent searches); the baseline below — and
  // everything the server serves — sees only the post-mutation lake.
  if (router == nullptr && !ApplyLakeMutations(options, &search)) return 1;
  if (!options.save_tuple_index_path.empty()) {
    Status saved =
        io::SaveIndex(*search.lake_index(), options.save_tuple_index_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot save tuple index: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote tuple index %s (%s)\n",
                options.save_tuple_index_path.c_str(),
                search.lake_index()->name().c_str());
  }

  // Sequential baseline: the parity oracle every served result must match.
  Result<std::vector<search::TupleHit>> sequential =
      search.SearchTuplesChecked(query, options.k);
  if (!sequential.ok()) {
    std::fprintf(stderr, "sequential tuple search failed: %s\n",
                 sequential.status().ToString().c_str());
    return 1;
  }
  const std::vector<search::TupleHit> baseline = std::move(sequential).value();
  if (!options.dump_hits_path.empty()) {
    if (!DumpHitsFile(options.dump_hits_path, search, baseline)) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.dump_hits_path.c_str());
      return 1;
    }
    std::printf("wrote %zu baseline hits to %s\n", baseline.size(),
                options.dump_hits_path.c_str());
  }

  serve::QueryServerOptions server_options;
  server_options.threads = options.threads;
  server_options.queue_capacity = options.queue_capacity;
  server_options.max_batch = options.batch_max;
  server_options.batch_window_us = options.batch_window_us;
  server_options.cache_entries = options.cache_entries;
  server_options.cache_bytes = options.cache_bytes;
  server_options.trace_sample_rate = options.trace_sample_rate;
  server_options.slow_query_ms = options.slow_query_ms;
  serve::QueryServer server(&search, server_options);
  // Readiness gate: a deploy script would poll this before routing traffic.
  if (server.readiness() != serve::Readiness::kReady) {
    std::fprintf(stderr, "server failed to become ready\n");
    return 1;
  }
  std::printf("server %s (cache %zu entries / %zu bytes)\n",
              serve::ReadinessName(server.readiness()), options.cache_entries,
              options.cache_bytes);

  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  Stopwatch serve_watch;
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&] {
      while (next.fetch_add(1) < options.requests) {
        serve::QueryServer::TupleResult result =
            server.Submit(query, options.k).get();
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<search::TupleHit>& hits = result.value();
        bool same = hits.size() == baseline.size();
        for (size_t i = 0; same && i < hits.size(); ++i) {
          same = hits[i].ref == baseline[i].ref &&
                 hits[i].similarity == baseline[i].similarity;
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = serve_watch.Seconds();
  server.Shutdown();
  const serve::QueryServerStats stats = server.stats();

  // Answered = dispatched through a batch + resolved from the cache.
  const uint64_t answered = stats.served + stats.cache_hits;
  std::printf(
      "answered %llu requests in %.3fs: %.0f QPS  "
      "p50 %.2fms  p95 %.2fms  p99 %.2fms  (%llu batched, %llu cached)\n",
      static_cast<unsigned long long>(answered), elapsed,
      elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0,
      stats.p50_ms, stats.p95_ms, stats.p99_ms,
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.cache_hits));
  std::printf(
      "batches %llu (mean size %.1f)  max queue depth %zu  "
      "threads %zu  window %zuus  clients %zu\n",
      static_cast<unsigned long long>(stats.batches), stats.mean_batch_size,
      stats.max_queue_depth, options.threads, options.batch_window_us,
      options.clients);
  if (options.cache_entries > 0) {
    std::printf(
        "cache: %llu hits / %llu misses (rate %.2f)  %zu entries  "
        "%zu bytes  %llu evictions  %llu invalidations\n",
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        stats.cache_hit_rate, stats.cache_entries, stats.cache_bytes,
        static_cast<unsigned long long>(stats.cache_evictions),
        static_cast<unsigned long long>(stats.cache_invalidations));
  }
  std::printf("server %s\n", serve::ReadinessName(server.readiness()));
  if (options.cascade) {
    std::printf("cascade stages:\n%s", search.CascadeStatsSummary().c_str());
  }
  std::printf("\nmetrics:\n%s", server.metrics().RenderTable().c_str());
  bool partial = false;
  if (router != nullptr) {
    const net::RouterStats rstats = router->stats();
    partial = rstats.partial_results > 0;
    std::printf(
        "router: rpcs=%llu failures=%llu retries=%llu "
        "partial_results=%llu partial=%s\n",
        static_cast<unsigned long long>(rstats.rpcs),
        static_cast<unsigned long long>(rstats.rpc_failures),
        static_cast<unsigned long long>(rstats.retries),
        static_cast<unsigned long long>(rstats.partial_results),
        partial ? "true" : "false");
  }
  if (!options.metrics_out_path.empty()) {
    // Machine-readable exposition for scrapers/CI: name{label} value lines.
    // With --router, every reachable shard's metrics follow, each series
    // labeled shard="host:port".
    std::FILE* f = std::fopen(options.metrics_out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.metrics_out_path.c_str());
      return 1;
    }
    std::string text = server.metrics().RenderText();
    if (router != nullptr) text += router->FederatedMetricsText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote metrics to %s\n", options.metrics_out_path.c_str());
  }
  if (!options.trace_out_path.empty()) {
    const obs::SpanCollector& collector = obs::SpanCollector::Global();
    const std::vector<obs::SpanRecord> spans = collector.Snapshot();
    Status wrote =
        obs::WriteChromeTrace(options.trace_out_path, spans, "dust_cli");
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s (%llu recorded, %llu dropped)\n",
                spans.size(), options.trace_out_path.c_str(),
                static_cast<unsigned long long>(collector.recorded_total()),
                static_cast<unsigned long long>(collector.dropped_total()));
    // Show one end-to-end request so the trace is inspectable without a
    // viewer; the last root span is the most representative (warmed up).
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
      if (it->name != "serve") continue;
      std::printf("sample trace:\n%s",
                  obs::RenderSpanTree(it->trace_id,
                                      collector.CollectTrace(it->trace_id))
                      .c_str());
      break;
    }
  }
  if (failures.load() > 0 || mismatches.load() > 0) {
    // With --allow-partial, a degraded run (a shard died mid-run, the
    // router kept answering from the survivors) is an expected outcome, not
    // a failure — but only when the router actually reports degradation;
    // mismatches with every shard healthy are real bugs either way.
    if (options.allow_partial && partial) {
      std::printf(
          "serve degraded: %zu errors, %zu parity mismatches tolerated "
          "(--allow-partial, router reported partial results)\n",
          failures.load(), mismatches.load());
      return 0;
    }
    std::fprintf(stderr, "serve FAILED: %zu errors, %zu parity mismatches\n",
                 failures.load(), mismatches.load());
    return 1;
  }
  std::printf("parity OK: all responses bit-identical to sequential search\n");
  if (!options.delete_tables.empty()) {
    // The mutable-lake acceptance check: every served response matched the
    // baseline bit for bit (above), so it suffices that the baseline
    // itself never touched a tombstoned table.
    for (const search::TupleHit& hit : baseline) {
      if (search.catalog().slot(hit.ref.table_index).removed) {
        std::fprintf(stderr,
                     "mutation check FAILED: hit from deleted table %s\n",
                     search.catalog().slot(hit.ref.table_index).name.c_str());
        return 1;
      }
    }
    std::printf("mutation check OK: no hits from deleted tables\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }

  // Load the lake.
  std::vector<table::Table> lake_storage;
  std::vector<std::string> lake_names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.lake_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".csv") continue;
    auto loaded = table::ReadCsvFile(entry.path().string());
    if (!loaded.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", entry.path().c_str(),
                   loaded.status().ToString().c_str());
      continue;
    }
    table::Table t = std::move(loaded).value();
    t.DropAllNullColumns();
    if (t.num_rows() == 0 || t.num_columns() == 0) continue;
    lake_names.push_back(entry.path().filename().string());
    lake_storage.push_back(std::move(t));
  }
  if (ec) {
    std::fprintf(stderr, "cannot read lake directory %s: %s\n",
                 options.lake_dir.c_str(), ec.message().c_str());
    return 1;
  }
  if (lake_storage.empty()) {
    std::fprintf(stderr, "no usable CSV tables in %s\n",
                 options.lake_dir.c_str());
    return 1;
  }

  table::Table query("query");
  if (!options.query_path.empty()) {
    auto query_loaded = table::ReadCsvFile(options.query_path);
    if (!query_loaded.ok()) {
      std::fprintf(stderr, "cannot load query: %s\n",
                   query_loaded.status().ToString().c_str());
      return 1;
    }
    query = std::move(query_loaded).value();
    query.DropAllNullColumns();
    // Same rule as lake and --add-tables inputs: a header-only or all-null
    // query has nothing to search with.
    if (query.num_rows() == 0 || query.num_columns() == 0) {
      std::fprintf(stderr, "cannot load query: %s has no data rows\n",
                   options.query_path.c_str());
      return 1;
    }
    std::printf("lake: %zu tables; query: %zu rows x %zu columns\n",
                lake_storage.size(), query.num_rows(), query.num_columns());
  } else {
    std::printf("lake: %zu tables (build-only invocation)\n",
                lake_storage.size());
  }

  if (options.serve || !options.save_tuple_index_path.empty()) {
    std::vector<const table::Table*> lake;
    lake.reserve(lake_storage.size());
    for (const table::Table& t : lake_storage) lake.push_back(&t);
    // --serve with --save-tuple-index persists the post-mutation index as
    // part of the serving run; only the build-only invocation goes through
    // RunSaveTupleIndex.
    if (!options.serve) {
      return RunSaveTupleIndex(options, lake);
    }
    return RunServeMode(options, lake, query);
  }

  // Pipeline.
  core::PipelineConfig config;
  config.engine = options.engine;
  config.search_index = options.index;
  config.search_shortlist = options.shortlist;
  config.search_shards = options.shards;
  config.hnsw_m = options.hnsw_m;
  config.hnsw_ef_search = options.hnsw_ef;
  if (options.engine == "d3l") {
    // Only the starmie engine builds a shortlist index.
    if (options.index != "flat" || options.shortlist > 0 ||
        options.shards > 0 || options.hnsw_m > 0 || options.hnsw_ef > 0) {
      std::fprintf(stderr,
                   "--index/--shortlist/--shards/--hnsw-* are ignored by the "
                   "%s engine\n",
                   options.engine.c_str());
    }
  } else {
    const std::string index_spec = config.EffectiveSearchIndex();
    if (index_spec != "flat" && options.shortlist == 0) {
      // The pipeline resolves this contradictory combination itself (a
      // shortlist of 0 would disable the index); surface the default here.
      std::fprintf(stderr,
                   "--index %s without --shortlist: the pipeline defaults "
                   "the shortlist to %zu\n",
                   index_spec.c_str(),
                   core::PipelineConfig::DefaultShortlist(options.tables));
    }
    if (options.hnsw_m > 0 || options.hnsw_ef > 0) {
      // Resolve the spec down to the concrete type the knobs apply to, so
      // "--index sharded:hnsw:4 --hnsw-ef 64" does not warn.
      shard::ShardedIndexConfig sharded;
      std::string concrete = index_spec;
      if (shard::ParseShardedSpec(index_spec, &sharded)) {
        concrete = sharded.child_type;
      }
      if (concrete != "hnsw") {
        std::fprintf(stderr, "--hnsw-m/--hnsw-ef are ignored by --index %s\n",
                     concrete.c_str());
      }
    }
  }
  config.cascade = MakeCascadeConfig(options);
  config.num_tables = options.tables;
  // The diversification tuple distance delta(.) (Sec. 3.1). The search
  // phase's shortlist index and table scoring are cosine by construction
  // (Starmie-style embedding similarity), matching the paper.
  config.metric = options.metric;
  config.diversifier.p = options.p;
  config.diversifier.prune_s = options.s;
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 64;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));
  core::DustPipeline pipeline(config, encoder);
  std::vector<const table::Table*> lake;
  for (const table::Table& t : lake_storage) lake.push_back(&t);

  Stopwatch index_watch;
  if (!options.load_index_path.empty()) {
    // Online serving: restore the offline-built embeddings + index instead
    // of re-embedding the lake. The CSVs above are still needed for
    // alignment and tuple materialization.
    Status loaded = pipeline.LoadSnapshot(options.load_index_path, lake);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load index snapshot: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    std::printf("loaded index snapshot %s in %.3fs (lake not re-embedded)\n",
                options.load_index_path.c_str(), index_watch.Seconds());
  } else {
    pipeline.IndexLake(lake);
    std::printf("indexed lake in %.3fs\n", index_watch.Seconds());
  }
  if (!options.save_index_path.empty()) {
    Status saved = pipeline.SaveSnapshot(options.save_index_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot save index snapshot: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote index snapshot %s\n", options.save_index_path.c_str());
    if (options.query_path.empty()) return 0;  // build-only invocation
  }

  auto result = pipeline.Run(query, options.k);
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const core::PipelineResult& r = result.value();

  std::printf("\nretrieved unionable tables:\n");
  for (const search::TableHit& hit : r.tables) {
    std::printf("  %-40s score %.3f\n", lake_names[hit.table_index].c_str(),
                hit.score);
  }
  std::printf("\n%zu diverse unionable tuples (first 10 shown):\n",
              r.output.num_rows());
  for (size_t j = 0; j < r.output.num_columns(); ++j) {
    std::printf("%-20s", r.output.column(j).name.c_str());
  }
  std::printf("\n");
  for (size_t row = 0; row < std::min<size_t>(10, r.output.num_rows()); ++row) {
    for (size_t j = 0; j < r.output.num_columns(); ++j) {
      std::printf("%-20s", r.output.at(row, j).ToDisplay().c_str());
    }
    std::printf("   <- %s\n",
                lake_names[r.provenance[row].table_index].c_str());
  }
  std::printf(
      "\ntimings: search %.3fs  align %.3fs  embed %.3fs  diversify %.3fs\n",
      r.timings.search_seconds, r.timings.align_seconds,
      r.timings.embed_seconds, r.timings.diversify_seconds);
  if (options.cascade) {
    std::printf("cascade stages:\n%s", pipeline.CascadeStatsSummary().c_str());
  }

  if (!options.out_path.empty()) {
    Status written = table::WriteCsvFile(r.output, options.out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", options.out_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", options.out_path.c_str());
  }
  return 0;
}

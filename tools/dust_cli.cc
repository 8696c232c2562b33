// dust_cli — run diverse unionable tuple search over a directory of CSVs.
//
//   dust_cli --lake <dir> --query <file.csv> [--k 30] [--tables 10]
//            [--engine starmie|d3l] [--index flat|hnsw]
//            [--hnsw-m N] [--hnsw-ef N]
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
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "embed/tuple_encoder.h"
#include "index/vector_index.h"
#include "io/index_io.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "search/tuple_search.h"
#include "serve/query_server.h"
#include "table/csv.h"
#include "util/stopwatch.h"

using namespace dust;

namespace {

/// The three kinds of invocation. Each flag names the ones that read it,
/// and a flag given to any other is a usage error.
enum Mode : unsigned {
  kRun = 1,         // Algorithm 1 for --query, or a --save-index build
  kServe = 2,       // --serve
  kTupleBuild = 4,  // --save-tuple-index without --serve
};
constexpr unsigned kAnyMode = kRun | kServe | kTupleBuild;

/// Flags parse straight into the library's configs; the rest are read only
/// by the CLI.
struct CliOptions {
  core::PipelineConfig pipeline;
  serve::QueryServerOptions server;
  std::string lake_dir;
  std::string query_path;
  std::string out_path;
  std::string save_index_path;
  std::string load_index_path;
  size_t k = 30;
  bool serve = false;
  size_t clients = 4;
  size_t requests = 200;
  std::string metrics_out_path;
  std::string trace_out_path;
  std::string save_tuple_index_path;  // build the tuple index, save, exit
  std::string dump_hits_path;         // write baseline hits, bit-exact
  // Mutable lakes (PR 10): tombstoned deletes and incremental ingest
  // against a live tuple index, applied before any query is served.
  std::string delete_tables;          // comma-separated lake table names
  std::string add_tables;             // comma-separated CSV paths to ingest
  bool compact = false;               // rewrite the index without tombstones
  std::string load_tuple_index_path;  // serve from a saved tuple index
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: dust_cli --lake <dir> --query <file.csv> [--k N] [--tables N]\n"
      "                [--engine starmie|d3l]\n"
      "                [--index flat|hnsw] [--hnsw-m N] [--hnsw-ef N]\n"
      "                [--metric cosine|euclidean|manhattan]\n"
      "                [--shortlist N] [--out result.csv] [--p N] [--s N]\n"
      "                [--save-index <snapshot> | --load-index <snapshot>]\n"
      "                [--serve [--threads N] [--batch-window-us U]\n"
      "                 [--batch-max N] [--queue N] [--clients N]\n"
      "                 [--requests N] [--cache N] [--cache-bytes N]\n"
      "                 [--metrics-out metrics.txt]\n"
      "                 [--trace-out trace.json] [--trace-sample R]\n"
      "                 [--slow-query-ms MS]\n"
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
      "       alignment; --index must name the saved index's type); with\n"
      "       --serve, --save-tuple-index persists the post-mutation index\n"
      "       --save-tuple-index builds the tuple-level index (honoring\n"
      "       --index) and saves it for a later --load-tuple-index\n"
      "       --save-index without --query builds the lake index and exits;\n"
      "       --load-index serves queries from a saved snapshot without\n"
      "       re-embedding the lake\n"
      "       --hnsw-m/--hnsw-ef tune the HNSW graph degree and query beam\n"
      "       width, and need --index hnsw\n"
      "       --metric selects the tuple distance delta(.) used for\n"
      "       diversification; table search scoring is always cosine\n"
      "       (Starmie-style embedding similarity)\n");
}

/// Parses a non-negative integer: digits only (strtoul alone would skip
/// whitespace and wrap signed values like " -5" to a huge size_t), and no
/// silent saturation — a value past ULONG_MAX makes strtoul clamp and set
/// ERANGE, which must be rejected as overflow, not accepted as a
/// huge-but-valid count.
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

/// The mode a command line selects: --serve wins over --save-tuple-index.
Mode ModeOf(const CliOptions& options) {
  if (options.serve) return kServe;
  return options.save_tuple_index_path.empty() ? kRun : kTupleBuild;
}

/// Completes the mode rule's "<flag> is not read ..." message.
const char* NotReadBy(Mode mode) {
  if (mode == kServe) return "by --serve";
  if (mode == kTupleBuild) return "by --save-tuple-index without --serve";
  return "without --serve";
}

/// One command-line flag. The target's type picks the parser: text, count
/// (ParseSize), number (ParseDouble), switch (takes no value) or metric
/// name. A count or number below `min` is rejected.
struct Flag {
  const char* name;
  std::variant<std::string*, size_t*, double*, bool*, la::Metric*> target;
  double min;
  unsigned modes;  // the Modes that read the flag
  bool given = false;
};

/// Parses `value` into the flag's target. Returns false after printing the
/// error.
bool ParseValue(const Flag& flag, const char* value) {
  if (auto* text = std::get_if<std::string*>(&flag.target)) {
    // Every text flag is a name or a path, and the CLI treats an empty path
    // as "not given": "" would silently skip the output or load it names.
    if (*value == '\0') {
      std::fprintf(stderr, "%s expects a non-empty value\n", flag.name);
      return false;
    }
    **text = value;
    return true;
  }
  if (auto* metric = std::get_if<la::Metric*>(&flag.target)) {
    // MetricFromName rejects unknown spellings instead of silently
    // falling back to cosine; a typo'd metric must not serve wrong
    // distances.
    Result<la::Metric> parsed = la::MetricFromName(value);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad %s: %s\n", flag.name,
                   parsed.status().ToString().c_str());
      return false;
    }
    **metric = parsed.value();
    return true;
  }
  double number = 0.0;
  if (auto* count = std::get_if<size_t*>(&flag.target)) {
    if (!ParseSize(flag.name, value, *count)) return false;
    number = static_cast<double>(**count);
  } else {
    double* target = std::get<double*>(flag.target);
    if (!ParseDouble(flag.name, value, target)) return false;
    number = *target;
  }
  if (number < flag.min) {
    std::fprintf(stderr, "%s must be >= %g, got: %s\n", flag.name, flag.min,
                 value);
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  core::PipelineConfig& pipeline = options->pipeline;
  serve::QueryServerOptions& server = options->server;
  // Result-cache bounds for --serve; the library's default is no cache.
  server.cache_entries = 1024;
  // < 0 means "unset" until --trace-out is known, below.
  server.trace_sample_rate = -1.0;
  Flag flags[] = {
      {"--lake", &options->lake_dir, 0, kAnyMode},
      {"--query", &options->query_path, 0, kRun | kServe},
      {"--out", &options->out_path, 0, kRun},
      {"--save-index", &options->save_index_path, 0, kRun},
      {"--load-index", &options->load_index_path, 0, kRun},
      {"--engine", &pipeline.engine, 0, kAnyMode},
      {"--index", &pipeline.search_index, 0, kAnyMode},
      // The diversification tuple distance delta(.) (Sec. 3.1). The search
      // phase's shortlist index and table scoring are cosine by
      // construction (Starmie-style embedding similarity), matching the
      // paper.
      {"--metric", &pipeline.metric, 0, kRun | kServe},
      {"--shortlist", &pipeline.search_shortlist, 0, kRun},
      // The HNSW graph degree and query beam width; 0 keeps the defaults.
      {"--hnsw-m", &pipeline.hnsw_m, 2, kAnyMode},
      {"--hnsw-ef", &pipeline.hnsw_ef_search, 1, kAnyMode},
      {"--k", &options->k, 1, kRun | kServe},
      {"--tables", &pipeline.num_tables, 0, kRun},
      {"--p", &pipeline.diversifier.p, 0, kRun},
      {"--s", &pipeline.diversifier.prune_s, 0, kRun},
      {"--serve", &options->serve, 0, kServe},
      {"--threads", &server.threads, 0, kServe},
      {"--batch-window-us", &server.batch_window_us, 0, kServe},
      {"--batch-max", &server.max_batch, 1, kServe},
      {"--queue", &server.queue_capacity, 1, kServe},
      {"--clients", &options->clients, 1, kServe},
      // A 0-request serve run would "succeed" vacuously — the parity
      // check passes because nothing was checked. Reject it up front.
      {"--requests", &options->requests, 1, kServe},
      {"--cache", &server.cache_entries, 0, kServe},
      {"--cache-bytes", &server.cache_bytes, 0, kServe},
      {"--metrics-out", &options->metrics_out_path, 0, kServe},
      {"--trace-out", &options->trace_out_path, 0, kServe},
      {"--trace-sample", &server.trace_sample_rate, 0, kServe},
      {"--slow-query-ms", &server.slow_query_ms, 0, kServe},
      {"--save-tuple-index", &options->save_tuple_index_path, 0,
       kServe | kTupleBuild},
      {"--load-tuple-index", &options->load_tuple_index_path, 0, kServe},
      {"--delete-tables", &options->delete_tables, 0, kServe},
      {"--add-tables", &options->add_tables, 0, kServe},
      {"--compact", &options->compact, 0, kServe},
      {"--dump-hits", &options->dump_hits_path, 0, kServe},
  };
  for (int i = 1; i < argc; ++i) {
    Flag* flag = nullptr;
    for (Flag& f : flags) {
      if (std::strcmp(argv[i], f.name) == 0) flag = &f;
    }
    const bool is_switch =
        flag != nullptr && std::holds_alternative<bool*>(flag->target);
    if (flag == nullptr || (!is_switch && i + 1 == argc)) {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", argv[i]);
      return false;
    }
    flag->given = true;
    if (is_switch) {
      *std::get<bool*>(flag->target) = true;
    } else if (!ParseValue(*flag, argv[++i])) {
      return false;
    }
  }
  if (pipeline.engine != "starmie" && pipeline.engine != "d3l") {
    // The pipeline routes anything that is not exactly "d3l" to starmie;
    // reject typos here instead of silently running the wrong engine.
    std::fprintf(stderr, "unknown --engine: %s\n", pipeline.engine.c_str());
    return false;
  }
  if (!index::IsKnownIndexType(pipeline.search_index)) {
    // Reject here for a usage error instead of the factory's DUST_CHECK
    // abort deep inside IndexLake.
    std::fprintf(stderr, "unknown --index type: %s\n",
                 pipeline.search_index.c_str());
    return false;
  }
  const Mode mode = ModeOf(*options);
  for (const Flag& flag : flags) {
    if (flag.given && (flag.modes & mode) == 0) {
      std::fprintf(stderr, "%s is not read %s\n", flag.name, NotReadBy(mode));
      return false;
    }
  }
  if (pipeline.search_index != "hnsw" &&
      (pipeline.hnsw_m > 0 || pipeline.hnsw_ef_search > 0)) {
    // On a flat index the knobs would change no hit, yet still enter
    // TupleSearch::ConfigHash and split the result cache's keys.
    std::fprintf(stderr, "%s needs --index hnsw (--index %s has no graph)\n",
                 pipeline.hnsw_m > 0 ? "--hnsw-m" : "--hnsw-ef",
                 pipeline.search_index.c_str());
    return false;
  }
  if (mode != kRun && pipeline.engine != "starmie") {
    std::fprintf(stderr, "%s needs the starmie engine\n",
                 mode == kServe ? "--serve" : "--save-tuple-index");
    return false;
  }
  if (mode == kServe) {
    if (options->query_path.empty()) {
      std::fprintf(stderr, "--serve needs --query for the client workload\n");
      return false;
    }
    if (pipeline.metric != la::Metric::kCosine) {
      // The tuple index scores with cosine similarity by construction;
      // accepting another metric here would silently serve cosine results
      // under the wrong label.
      std::fprintf(stderr,
                   "--serve scores tuples with cosine similarity only; "
                   "--metric %s is not supported\n",
                   la::MetricName(pipeline.metric));
      return false;
    }
  }
  if (!options->save_index_path.empty() && !options->load_index_path.empty()) {
    std::fprintf(stderr, "--save-index and --load-index are exclusive\n");
    return false;
  }
  if ((!options->save_index_path.empty() ||
       !options->load_index_path.empty()) &&
      pipeline.engine == "d3l") {
    std::fprintf(stderr, "the d3l engine does not support index snapshots\n");
    return false;
  }
  if (server.trace_sample_rate < 0.0) {
    // Asking for a trace file implies tracing everything; otherwise the
    // sampler stays off and tracing costs nothing.
    server.trace_sample_rate = options->trace_out_path.empty() ? 0.0 : 1.0;
  }
  if (!obs::ValidSampleRate(server.trace_sample_rate)) {
    std::fprintf(stderr,
                 "--trace-sample must be a rate within [0, 1], got: %g\n",
                 server.trace_sample_rate);
    return false;
  }
  // --query is optional only for a build-and-save invocation, which has no
  // results for --out.
  if (options->query_path.empty() && !options->out_path.empty()) {
    std::fprintf(stderr, "--out needs --query\n");
    return false;
  }
  const bool build_only =
      mode == kTupleBuild || !options->save_index_path.empty();
  return !options->lake_dir.empty() &&
         (build_only || !options->query_path.empty());
}

/// The tuple-index configuration shared by --serve and --save-tuple-index:
/// a saved index only loads back under the config that built it.
search::TupleSearchConfig MakeTupleConfig(const CliOptions& options) {
  search::TupleSearchConfig config;
  config.index_type = options.pipeline.search_index;
  config.index_options.hnsw_m = options.pipeline.hnsw_m;
  config.index_options.hnsw_ef_search = options.pipeline.hnsw_ef_search;
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

/// --serve and --save-tuple-index: builds a tuple-level index over the
/// lake (or loads a saved one), applies the lake mutations and saves it.
/// Only --serve goes on: it starts the async QueryServer and drives it with
/// a synthetic closed-loop client (each of --clients threads keeps exactly
/// one request in flight until --requests queries have been served). Every
/// response is verified bit-identical to the sequential SearchTuplesChecked
/// baseline. Returns the process exit code.
int RunTupleSearch(const CliOptions& options,
                   const std::vector<const table::Table*>& lake,
                   const table::Table& query) {
  search::TupleSearch search(MakeTupleEncoder(), MakeTupleConfig(options));
  Stopwatch index_watch;
  if (!options.load_tuple_index_path.empty()) {
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
  if (!ApplyLakeMutations(options, &search)) return 1;
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
  if (!options.serve) return 0;

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

  serve::QueryServer server(&search, options.server);
  // Readiness gate: a deploy script would poll this before routing traffic.
  if (server.readiness() != serve::Readiness::kReady) {
    std::fprintf(stderr, "server failed to become ready\n");
    return 1;
  }
  std::printf("server %s (cache %zu entries / %zu bytes)\n",
              serve::ReadinessName(server.readiness()),
              options.server.cache_entries, options.server.cache_bytes);

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
      stats.max_queue_depth, options.server.threads,
      options.server.batch_window_us, options.clients);
  if (options.server.cache_entries > 0) {
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
  std::printf("\nmetrics:\n%s", server.metrics().RenderTable().c_str());
  if (!options.metrics_out_path.empty()) {
    // Machine-readable exposition for scrapers/CI: name{label} value lines.
    const std::string text = server.metrics().RenderText();
    std::FILE* f = std::fopen(options.metrics_out_path.c_str(), "w");
    bool written = f != nullptr;
    if (written) {
      // A full disk may fail the write or only the flush at close.
      written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      written = std::fclose(f) == 0 && written;
    }
    if (!written) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.metrics_out_path.c_str());
      return 1;
    }
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

  // Load the lake in file-name order. A directory lists in an unspecified
  // order (hash order on ext4, an order that follows creation on tmpfs),
  // and table indices, tie-breaks, snapshot hashes and a saved tuple
  // index's refs all follow the lake order.
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.lake_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".csv") continue;
    paths.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read lake directory %s: %s\n",
                 options.lake_dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  std::vector<table::Table> lake_storage;
  std::vector<std::string> lake_names;
  for (const std::filesystem::path& path : paths) {
    auto loaded = table::ReadCsvFile(path.string());
    if (!loaded.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      continue;
    }
    table::Table t = std::move(loaded).value();
    t.DropAllNullColumns();
    if (t.num_rows() == 0 || t.num_columns() == 0) continue;
    lake_names.push_back(path.filename().string());
    lake_storage.push_back(std::move(t));
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

  std::vector<const table::Table*> lake;
  for (const table::Table& t : lake_storage) lake.push_back(&t);
  if (ModeOf(options) != kRun) return RunTupleSearch(options, lake, query);

  // Pipeline.
  const core::PipelineConfig& config = options.pipeline;
  if (config.engine == "d3l") {
    // Only the starmie engine builds a shortlist index.
    if (config.search_index != "flat" || config.search_shortlist > 0 ||
        config.hnsw_m > 0 || config.hnsw_ef_search > 0) {
      std::fprintf(stderr,
                   "--index/--shortlist/--hnsw-* are ignored by the "
                   "%s engine\n",
                   config.engine.c_str());
    }
  } else {
    if (config.search_index != "flat" && config.search_shortlist == 0) {
      // The pipeline resolves this contradictory combination itself (a
      // shortlist of 0 would disable the index); surface the default here.
      std::fprintf(stderr,
                   "--index %s without --shortlist: the pipeline defaults "
                   "the shortlist to %zu\n",
                   config.search_index.c_str(),
                   core::PipelineConfig::DefaultShortlist(config.num_tables));
    }
  }
  core::DustPipeline pipeline(config, MakeTupleEncoder());

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

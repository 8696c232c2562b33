#include "search/cascade/cascade_search.h"

#include <iomanip>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "text/hashing.h"
#include "util/stopwatch.h"

namespace dust::search::cascade {

namespace {

/// Stage latencies span nanosecond prefilters to millisecond reranks.
std::vector<double> StageMicrosBounds() {
  return {1,    2,    5,     10,    25,    50,     100,    250,
          500,  1000, 2500,  5000,  10000, 25000,  50000,  100000,
          250000, 500000};
}

}  // namespace

uint64_t ChainCascadeConfig(uint64_t h, const CascadeConfig& config) {
  h = text::HashString("dust-cascade-v1", h);
  h = text::ChainHash(h, static_cast<uint64_t>(config.enabled));
  h = text::ChainHash(h, static_cast<uint64_t>(config.prefilter));
  h = text::ChainHash(h, static_cast<uint64_t>(config.prescreen));
  h = text::ChainHash(h, config.prefilter_min_type_overlap);
  h = text::ChainHash(h, config.prefilter_max_column_ratio);
  h = text::ChainHash(h, static_cast<uint64_t>(config.prescreen_keep));
  h = text::ChainHash(h, static_cast<uint64_t>(config.minhash_hashes));
  h = text::ChainHash(h, config.minhash_seed);
  return h;
}

CascadeSearch::Instruments::Instruments() : micros(StageMicrosBounds()) {}

CascadeSearch::CascadeSearch(std::vector<std::string> stage_names)
    : names_(std::move(stage_names)) {
  instruments_.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    instruments_.push_back(std::make_unique<Instruments>());
  }
}

Status CascadeSearch::Run(const std::vector<const CandidateStage*>& stages,
                          CandidateSet& set,
                          std::vector<StageStats>* stats) const {
  for (const CandidateStage* stage : stages) {
    const std::string name = stage->name();
    size_t slot = names_.size();
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        slot = i;
        break;
      }
    }
    if (slot == names_.size()) {
      return Status::Internal("cascade stage '" + name +
                              "' was not declared at construction");
    }
    const size_t in = set.tables.size();
    obs::Span span("stage:" + name);
    Stopwatch watch;
    DUST_RETURN_IF_ERROR(stage->Run(set));
    const double micros = watch.Seconds() * 1e6;
    const size_t out = set.tables.size();
    span.AddTag("in", static_cast<uint64_t>(in));
    span.AddTag("out", static_cast<uint64_t>(out));
    Instruments& instruments = *instruments_[slot];
    instruments.runs.Increment();
    instruments.in.Increment(in);
    instruments.out.Increment(out);
    instruments.micros.Record(micros);
    if (stats != nullptr) stats->push_back({name, in, out, micros});
  }
  return Status::Ok();
}

void CascadeSearch::RegisterMetrics(serve::Metrics* metrics) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string prefix = "dust_cascade_stage_" + names_[i];
    metrics->RegisterCounter(prefix + "_runs_total", &instruments_[i]->runs);
    metrics->RegisterCounter(prefix + "_in_total", &instruments_[i]->in);
    metrics->RegisterCounter(prefix + "_out_total", &instruments_[i]->out);
    metrics->RegisterHistogram(prefix + "_micros", &instruments_[i]->micros);
  }
}

std::string CascadeSearch::StatsSummary() const {
  std::ostringstream out;
  for (size_t i = 0; i < names_.size(); ++i) {
    const Instruments& instruments = *instruments_[i];
    const uint64_t runs = instruments.runs.value();
    if (runs == 0) continue;
    const uint64_t in = instruments.in.value();
    const uint64_t kept = instruments.out.value();
    const double reduction =
        in > 0 ? 1.0 - static_cast<double>(kept) / static_cast<double>(in)
               : 0.0;
    out << "stage " << std::left << std::setw(10) << names_[i] << " runs="
        << runs << " in=" << in << " out=" << kept << " reduction="
        << std::fixed << std::setprecision(3) << reduction << " mean_us="
        << std::setprecision(1)
        << instruments.micros.sum() / static_cast<double>(runs) << "\n";
  }
  return out.str();
}

}  // namespace dust::search::cascade

#include "search/overlap_search.h"

#include <algorithm>

#include "la/distance.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace dust::search {

namespace {

/// Hashes per MinHash sketch (value overlap and format).
constexpr size_t kMinHashHashes = 64;
/// Column-score weights of the four signals.
constexpr double kWeightName = 0.25;
constexpr double kWeightValues = 0.35;
constexpr double kWeightFormat = 0.15;
constexpr double kWeightEmbedding = 0.25;

}  // namespace

OverlapUnionSearch::OverlapUnionSearch(OverlapSearchConfig config)
    : config_(config),
      embedder_(embed::MakeEmbedder(
          embed::ModelFamily::kFastText,
          embed::DefaultConfigFor(embed::ModelFamily::kFastText,
                                  config.embedding_dim, config.seed))) {}

OverlapUnionSearch::ColumnSignature OverlapUnionSearch::SignColumn(
    const table::Column& column) const {
  ColumnSignature sig{
      text::WordTokens(column.name),
      MinHashSketch({}, kMinHashHashes, config_.seed),
      MinHashSketch({}, kMinHashHashes, config_.seed ^ 0xF0F0ULL),
      la::Vec()};
  std::vector<std::string> values;
  std::vector<std::string> grams;
  std::string all_text;
  for (const table::Value& v : column.values) {
    if (v.is_null()) continue;
    values.push_back(ToLower(v.text()));
    for (auto& g : text::CharNgrams(v.text(), 3)) grams.push_back(std::move(g));
    all_text += v.text();
    all_text += ' ';
  }
  sig.values = MinHashSketch(values, kMinHashHashes, config_.seed);
  sig.format = MinHashSketch(grams, kMinHashHashes, config_.seed ^ 0xF0F0ULL);
  sig.embedding = embedder_->Embed(all_text);
  return sig;
}

double OverlapUnionSearch::ColumnScore(const ColumnSignature& a,
                                       const ColumnSignature& b) const {
  double name_sim = ExactJaccard(a.name_tokens, b.name_tokens);
  double value_sim = a.values.EstimateJaccard(b.values);
  double format_sim = a.format.EstimateJaccard(b.format);
  double embed_sim = 0.0;
  if (!a.embedding.empty() && !b.embedding.empty()) {
    embed_sim = std::max(0.0f, la::CosineSimilarity(a.embedding, b.embedding));
  }
  return kWeightName * name_sim + kWeightValues * value_sim +
         kWeightFormat * format_sim + kWeightEmbedding * embed_sim;
}

void OverlapUnionSearch::IndexLake(
    const std::vector<const table::Table*>& lake) {
  lake_signatures_.clear();
  lake_signatures_.reserve(lake.size());
  for (const table::Table* t : lake) {
    std::vector<ColumnSignature> sigs;
    sigs.reserve(t->num_columns());
    for (const table::Column& c : t->columns()) sigs.push_back(SignColumn(c));
    lake_signatures_.push_back(std::move(sigs));
  }
}

std::vector<TableHit> OverlapUnionSearch::SearchTables(
    const table::Table& query, size_t n) const {
  std::vector<ColumnSignature> query_sigs;
  query_sigs.reserve(query.num_columns());
  for (const table::Column& c : query.columns()) {
    query_sigs.push_back(SignColumn(c));
  }

  std::vector<TableHit> hits;
  hits.reserve(lake_signatures_.size());
  for (size_t t = 0; t < lake_signatures_.size(); ++t) {
    const auto& lake_sigs = lake_signatures_[t];
    // Greedy one-to-one matching of query columns to lake columns by score
    // (D3L aggregates per-column evidence; greedy suffices for ranking).
    struct Cell {
      double score;
      size_t qc, lc;
    };
    std::vector<Cell> cells;
    for (size_t qc = 0; qc < query_sigs.size(); ++qc) {
      for (size_t lc = 0; lc < lake_sigs.size(); ++lc) {
        cells.push_back({ColumnScore(query_sigs[qc], lake_sigs[lc]), qc, lc});
      }
    }
    std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.qc != b.qc) return a.qc < b.qc;
      return a.lc < b.lc;
    });
    std::vector<bool> used_q(query_sigs.size(), false);
    std::vector<bool> used_l(lake_sigs.size(), false);
    double total = 0.0;
    for (const Cell& cell : cells) {
      if (used_q[cell.qc] || used_l[cell.lc]) continue;
      used_q[cell.qc] = true;
      used_l[cell.lc] = true;
      total += cell.score;
    }
    // Normalize by query arity so wide tables don't dominate.
    double score =
        query_sigs.empty() ? 0.0 : total / static_cast<double>(query_sigs.size());
    hits.push_back({t, score});
  }
  std::sort(hits.begin(), hits.end(), [](const TableHit& a, const TableHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_index < b.table_index;
  });
  if (hits.size() > n) hits.resize(n);
  return hits;
}

}  // namespace dust::search

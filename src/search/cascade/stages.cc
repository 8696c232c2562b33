#include "search/cascade/stages.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "la/distance.h"
#include "serve/executor.h"
#include "util/string_util.h"

namespace dust::search::cascade {

TableSignature SignatureOf(const table::Table& table) {
  TableSignature sig;
  sig.columns = table.num_columns();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).NumericFraction() >= 0.5) ++sig.numeric_columns;
  }
  return sig;
}

std::vector<std::string> TableValueSample(const table::Table& table) {
  std::vector<std::string> values;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (const table::Value& v : table.column(c).values) {
      if (v.is_null()) continue;
      values.push_back(ToLower(v.text()));
    }
  }
  return values;
}

bool PrefilterCompatible(const TableSignature& query,
                         const TableSignature& candidate,
                         const CascadeConfig& config) {
  if (query.columns == 0) return true;
  if (candidate.columns == 0) return false;
  const uint64_t query_text = query.columns - query.numeric_columns;
  const uint64_t candidate_text = candidate.columns - candidate.numeric_columns;
  const uint64_t overlap = std::min(query_text, candidate_text) +
                           std::min(query.numeric_columns,
                                    candidate.numeric_columns);
  // Epsilon keeps "overlap == min_type_overlap * columns" admitted despite
  // float rounding in the product.
  const double required =
      config.prefilter_min_type_overlap * static_cast<double>(query.columns);
  if (static_cast<double>(overlap) + 1e-9 < required) return false;
  return static_cast<double>(candidate.columns) <=
         config.prefilter_max_column_ratio *
                 static_cast<double>(query.columns) +
             1e-9;
}

Status TypePrefilterStage::Run(CandidateSet& set) const {
  std::vector<size_t> kept;
  kept.reserve(set.tables.size());
  for (size_t t : set.tables) {
    if (t >= signatures_->size()) {
      return Status::Internal("prefilter candidate id out of range");
    }
    if (PrefilterCompatible(set.query_signature, (*signatures_)[t],
                            *config_)) {
      kept.push_back(t);
    }
  }
  set.tables = std::move(kept);
  return Status::Ok();
}

Status MinHashPrescreenStage::Run(CandidateSet& set) const {
  const size_t keep = config_->prescreen_keep;
  if (keep == 0 || set.tables.size() <= keep) return Status::Ok();
  if (set.query_sketch == nullptr) {
    return Status::Internal("prescreen stage was run without a query sketch");
  }
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(set.tables.size());
  for (size_t t : set.tables) {
    if (t >= sketches_->size()) {
      return Status::Internal("prescreen candidate id out of range");
    }
    scored.emplace_back(set.query_sketch->EstimateJaccard((*sketches_)[t]),
                        t);
  }
  std::sort(scored.begin(), scored.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  scored.resize(keep);
  set.tables.clear();
  for (const auto& [similarity, t] : scored) set.tables.push_back(t);
  // Survivors stay in ascending-id order, like the untouched candidate
  // set, so downstream stages see a deterministic layout either way.
  std::sort(set.tables.begin(), set.tables.end());
  return Status::Ok();
}

Status VectorShortlistStage::Run(CandidateSet& set) const {
  const index::VectorIndex* index = index_slot_->get();
  if (shortlist_ == 0 || index == nullptr) return Status::Ok();
  if (set.query_profile == nullptr) {
    return Status::Internal("shortlist stage was run without a query profile");
  }
  if (set.tables.size() >= profiles_->size()) {
    // Untouched candidate set: delegate to the index exactly as the flat
    // path does, preserving its (possibly approximate) behavior bit for
    // bit.
    std::vector<index::SearchHit> hits =
        index->Search(*set.query_profile, shortlist_);
    set.tables.clear();
    set.tables.reserve(hits.size());
    for (const index::SearchHit& hit : hits) set.tables.push_back(hit.id);
    return Status::Ok();
  }
  // Pre-pruned set: the index covers tables the earlier layers already
  // rejected, so score the survivors exactly and keep FinalizeHits
  // semantics (ascending distance, ties toward lower ids, truncate).
  std::vector<index::SearchHit> hits;
  hits.reserve(set.tables.size());
  for (size_t t : set.tables) {
    if (t >= profiles_->size()) {
      return Status::Internal("shortlist candidate id out of range");
    }
    hits.push_back({t, la::Distance(la::Metric::kCosine, *set.query_profile,
                                    (*profiles_)[t])});
  }
  index::FinalizeHits(&hits, shortlist_);
  set.tables.clear();
  set.tables.reserve(hits.size());
  for (const index::SearchHit& hit : hits) set.tables.push_back(hit.id);
  return Status::Ok();
}

Status ExactRerankStage::Run(CandidateSet& set) const {
  const std::vector<size_t>& tables = set.tables;
  std::vector<TableHit> hits;
  if (set.n > 0) {
    std::vector<double> bounds(tables.size());
    const auto bound_one = [&](size_t i) { bounds[i] = bound_(tables[i]); };
    // Bounds are pure per-table functions, so pooled evaluation is
    // deterministic: every slot is written exactly once.
    if (set.executor != nullptr) {
      set.executor->ParallelFor(tables.size(), bound_one);
    } else {
      for (size_t i = 0; i < tables.size(); ++i) bound_one(i);
    }

    // Candidate positions as a heap popping the highest bound first, ties
    // toward the lower id.
    std::vector<size_t> pending(tables.size());
    std::iota(pending.begin(), pending.end(), size_t{0});
    const auto pops_later = [&](size_t a, size_t b) {
      if (bounds[a] != bounds[b]) return bounds[a] < bounds[b];
      return tables[a] > tables[b];
    };
    std::make_heap(pending.begin(), pending.end(), pops_later);

    // The n best exact hits so far as a heap whose front is the worst
    // of them; ranks by score descending, then id ascending.
    const auto ranks_before = [](const TableHit& a, const TableHit& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.table_index < b.table_index;
    };
    hits.reserve(std::min(set.n, tables.size()));
    while (!pending.empty()) {
      std::pop_heap(pending.begin(), pending.end(), pops_later);
      const size_t i = pending.back();
      pending.pop_back();
      // The bound and the exact matching sum the same weights in different
      // orders, so a bound can read a few ulps under its own score; the
      // margin keeps such a candidate verified. A bound tied with the n-th
      // score is verified too, so lower ids still win ties at the cut.
      if (hits.size() == set.n && bounds[i] < hits.front().score - 1e-9) {
        break;
      }
      const TableHit hit{tables[i], scorer_(tables[i])};
      if (hits.size() < set.n) {
        hits.push_back(hit);
        std::push_heap(hits.begin(), hits.end(), ranks_before);
      } else if (ranks_before(hit, hits.front())) {
        std::pop_heap(hits.begin(), hits.end(), ranks_before);
        hits.back() = hit;
        std::push_heap(hits.begin(), hits.end(), ranks_before);
      }
    }
    std::sort_heap(hits.begin(), hits.end(), ranks_before);
  }
  set.tables.clear();
  set.tables.reserve(hits.size());
  for (const TableHit& hit : hits) set.tables.push_back(hit.table_index);
  set.hits = std::move(hits);
  return Status::Ok();
}

}  // namespace dust::search::cascade

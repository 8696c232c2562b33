#include "search/cascade/stages.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "la/distance.h"
#include "serve/executor.h"
#include "text/hashing.h"

namespace dust::search::cascade {

uint64_t ChainRetiredCascadeDefaults(uint64_t h) {
  // The removed CascadeConfig's defaults, in its field order: enabled,
  // prefilter, prescreen, prefilter_min_type_overlap,
  // prefilter_max_column_ratio, prescreen_keep, minhash_hashes and
  // minhash_seed.
  h = text::HashString("dust-cascade-v1", h);
  h = text::ChainHash(h, uint64_t{0});
  h = text::ChainHash(h, uint64_t{1});
  h = text::ChainHash(h, uint64_t{1});
  h = text::ChainHash(h, 0.5);
  h = text::ChainHash(h, 4.0);
  h = text::ChainHash(h, uint64_t{64});
  h = text::ChainHash(h, uint64_t{64});
  h = text::ChainHash(h, uint64_t{0xD057CA5CADEULL});
  return h;
}

Status VectorShortlistStage::Run(CandidateSet& set) const {
  if (shortlist_ == 0 || index_ == nullptr) return Status::Ok();
  if (set.query_profile == nullptr) {
    return Status::Internal("shortlist stage was run without a query profile");
  }
  if (set.tables.size() >= profiles_->size()) {
    // Every profile is a candidate: delegate to the index, preserving its
    // (possibly approximate) behavior bit for bit.
    std::vector<index::SearchHit> hits =
        index_->Search(*set.query_profile, shortlist_);
    set.tables.clear();
    set.tables.reserve(hits.size());
    for (const index::SearchHit& hit : hits) set.tables.push_back(hit.id);
    return Status::Ok();
  }
  // Narrowed set: the index still holds profiles of tables that are no
  // longer candidates, so score the survivors exactly and keep FinalizeHits
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

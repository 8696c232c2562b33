#include "search/tuple_search.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "serve/executor.h"
#include "text/hashing.h"
#include "util/status.h"

namespace dust::search {

namespace {

/// Fuses per-query-tuple hit lists into the top-k lake tuples: a lake
/// tuple's score is its best similarity to any query tuple (so exact copies
/// rank first). Deterministic — ties break by (table, row) provenance.
/// The k best are selected, not sorted out of every candidate, and come
/// back in a vector sized for them alone.
std::vector<TupleHit> FuseTupleHits(
    const std::vector<std::vector<index::SearchHit>>& per_tuple_hits,
    size_t begin, size_t count, const std::vector<table::TupleRef>& refs,
    size_t k) {
  std::unordered_map<size_t, double> best_similarity;
  for (size_t t = begin; t < begin + count; ++t) {
    for (const index::SearchHit& hit : per_tuple_hits[t]) {
      double similarity = 1.0 - static_cast<double>(hit.distance);
      auto [it, inserted] = best_similarity.try_emplace(hit.id, similarity);
      if (!inserted && similarity > it->second) it->second = similarity;
    }
  }
  std::vector<TupleHit> hits;
  hits.reserve(best_similarity.size());
  for (const auto& [id, similarity] : best_similarity) {
    hits.push_back({refs[id], similarity});
  }
  // Refs are distinct, so this is a strict total order and the selected
  // prefix equals a full sort's.
  const size_t keep = std::min(k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(),
                    [](const TupleHit& a, const TupleHit& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      if (a.ref.table_index != b.ref.table_index) {
                        return a.ref.table_index < b.ref.table_index;
                      }
                      return a.ref.row_index < b.ref.row_index;
                    });
  return std::vector<TupleHit>(hits.begin(), hits.begin() + keep);
}

}  // namespace

TupleSearch::TupleSearch(std::shared_ptr<embed::TupleEncoder> encoder,
                         TupleSearchConfig config)
    : encoder_(std::move(encoder)), config_(config) {
  DUST_CHECK(encoder_ != nullptr);
}

void TupleSearch::IndexLake(const std::vector<const table::Table*>& lake) {
  refs_.clear();
  index_ = index::MakeVectorIndex(config_.index_type, encoder_->dim(),
                                  la::Metric::kCosine, config_.index_options);
  for (size_t t = 0; t < lake.size(); ++t) {
    std::vector<la::Vec> rows = encoder_->EncodeTableRows(*lake[t]);
    // One bulk call per table keeps the index's batch ingest path hot
    // (flat reserves + norms once).
    index_->AddAll(rows);
    for (size_t r = 0; r < rows.size(); ++r) {
      refs_.push_back({t, r});
    }
  }
  catalog_.Reset(lake);
  RecomputeLakeHash();
}

Status TupleSearch::UseIndex(std::unique_ptr<index::VectorIndex> index,
                             const std::vector<const table::Table*>& lake) {
  if (index == nullptr) {
    return Status::InvalidArgument("UseIndex requires a non-null index");
  }
  if (index->type_tag() != config_.index_type) {
    return Status::FailedPrecondition("index type " + index->type_tag() +
                                      " != configured " + config_.index_type);
  }
  size_t total_rows = 0;
  for (const table::Table* t : lake) total_rows += t->num_rows();
  if (index->size() != total_rows) {
    return Status::FailedPrecondition(
        "index covers " + std::to_string(index->size()) +
        " tuples but the lake has " + std::to_string(total_rows));
  }
  if (index->dim() != encoder_->dim()) {
    return Status::FailedPrecondition(
        "index dim " + std::to_string(index->dim()) +
        " != encoder dim " + std::to_string(encoder_->dim()));
  }
  if (index->metric() != la::Metric::kCosine) {
    return Status::FailedPrecondition(
        "tuple search ranks by cosine similarity; the index metric differs");
  }
  // A saved index keeps RemoveTable's tombstones until CompactIndex. A
  // table whose tuples are all dead was removed before the save and stays
  // removed; RemoveTable never kills part of a table, so a partly dead one
  // means the index and the lake disagree.
  std::vector<table::TupleRef> refs;
  refs.reserve(total_rows);
  std::vector<size_t> removed;
  for (size_t t = 0; t < lake.size(); ++t) {
    const size_t rows = lake[t]->num_rows();
    size_t dead = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (index->IsDead(refs.size())) ++dead;
      refs.push_back({t, r});
    }
    if (dead == 0) continue;
    if (dead < rows) {
      return Status::FailedPrecondition(
          "table " + lake[t]->name() + " has " + std::to_string(dead) +
          " of its " + std::to_string(rows) +
          " tuples tombstoned in the index; only whole tables are removed");
    }
    removed.push_back(t);
  }
  refs_ = std::move(refs);
  catalog_.Reset(lake);
  for (size_t t : removed) catalog_.MarkRemoved(t);
  RecomputeLakeHash();
  index_ = std::move(index);
  return Status::Ok();
}

void TupleSearch::RecomputeLakeHash() {
  lake_hash_ = catalog_.ChainState(text::ChainHash(0, "dust-tuple-lake-v1"));
}

Status TupleSearch::RemoveTable(const std::string& name) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "no lake index; call IndexLake/UseIndex before mutating");
  }
  Result<size_t> removed = catalog_.Remove(name);
  DUST_RETURN_IF_ERROR(removed.status());
  std::vector<size_t> ids;
  for (size_t id = 0; id < refs_.size(); ++id) {
    if (refs_[id].table_index == removed.value()) ids.push_back(id);
  }
  index_->RemoveAll(ids);
  RecomputeLakeHash();
  return Status::Ok();
}

Status TupleSearch::AddTable(const table::Table& table) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "no lake index; call IndexLake/UseIndex before mutating");
  }
  DUST_RETURN_IF_ERROR(catalog_.Add(table));
  const size_t table_index = catalog_.size() - 1;
  std::vector<la::Vec> rows = encoder_->EncodeTableRows(table);
  index_->AddAll(rows);
  for (size_t r = 0; r < rows.size(); ++r) {
    refs_.push_back({table_index, r});
  }
  RecomputeLakeHash();
  return Status::Ok();
}

Status TupleSearch::CompactIndex() {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "no lake index; call IndexLake/UseIndex before compacting");
  }
  if (index_->num_tombstones() == 0) return Status::Ok();
  std::vector<size_t> remap;
  Result<std::unique_ptr<index::VectorIndex>> compacted =
      index_->Compact(&remap);
  DUST_RETURN_IF_ERROR(compacted.status());
  // Survivors keep their relative order under Compact's remap, so the new
  // refs are the old ones with the dead rows squeezed out.
  std::vector<table::TupleRef> live_refs;
  live_refs.reserve(index_->live_size());
  for (size_t id = 0; id < refs_.size(); ++id) {
    if (remap[id] != index::VectorIndex::kInvalidId) {
      live_refs.push_back(refs_[id]);
    }
  }
  refs_ = std::move(live_refs);
  index_ = std::move(compacted).value();
  // lake_hash_ stays untouched on purpose: the set of live tuples and all
  // similarities are identical, so results cached pre-compaction remain
  // correct post-compaction.
  return Status::Ok();
}

uint64_t TupleSearch::QueryFingerprint(const table::Table& query) const {
  uint64_t h = text::ChainHash(0, "dust-query-fp-v1");
  h = text::ChainHash(h, query.num_rows());
  for (const la::Vec& row : encoder_->EncodeTableRows(query)) {
    const auto* bytes = reinterpret_cast<const char*>(row.data());
    h = text::HashString(
        std::string_view(bytes, row.size() * sizeof(float)), h);
  }
  return h;
}

uint64_t TupleSearch::ConfigHash() const {
  uint64_t h = text::ChainHash(0, "dust-tuple-config-v1");
  h = text::ChainHash(h, config_.index_type);
  h = text::ChainHash(h, config_.per_query_candidates);
  h = text::ChainHash(h, config_.index_options.hnsw_m);
  h = text::ChainHash(h, config_.index_options.hnsw_ef_search);
  // The retired IVF knobs (nlist, nprobe) were chained here; their
  // defaults keep every saved tuple index and cache key valid.
  h = text::ChainHash(h, uint64_t{0});
  h = text::ChainHash(h, uint64_t{0});
  h = text::ChainHash(h, encoder_->name());
  h = text::ChainHash(h, encoder_->dim());
  // The retired cascade knobs were chained here; their defaults keep every
  // config hash, and so every cache key, unchanged.
  h = ChainRetiredCascadeDefaults(h);
  return h;
}

Result<std::vector<TupleHit>> TupleSearch::SearchTuplesChecked(
    const table::Table& query, size_t k) const {
  std::vector<Result<std::vector<TupleHit>>> results =
      SearchTuplesBatch({{&query, k}});
  return std::move(results[0]);
}

std::vector<Result<std::vector<TupleHit>>> TupleSearch::SearchTuplesBatch(
    const std::vector<TupleQuery>& queries, serve::Executor* executor) const {
  std::vector<Result<std::vector<TupleHit>>> results(
      queries.size(), Status::Internal("tuple query left unanswered"));
  if (queries.empty()) return results;
  if (index_ == nullptr) {
    for (Result<std::vector<TupleHit>>& r : results) {
      r = Status::FailedPrecondition(
          "tuple search has no lake index; call IndexLake before serving "
          "queries");
    }
    return results;
  }
  // Admission: reject malformed requests individually so the rest of the
  // batch still gets served; then group the valid ones by candidate fetch
  // depth — SearchBatch takes one k for all its queries, and mixing depths
  // would perturb fusion inputs and break bit-parity with the sequential
  // path. In steady state every request uses per_query_candidates, so a
  // batch is a single group and a single SearchBatch call.
  // Captured by value so ParallelFor members re-install the batch's trace
  // on whichever pool thread runs them.
  const obs::TraceContext trace_ctx = obs::CurrentContext();
  serve::Executor& pool =
      executor != nullptr ? *executor : serve::Executor::Default();
  std::map<size_t, std::vector<size_t>> groups_by_fetch;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].table == nullptr || queries[i].table->num_rows() == 0) {
      results[i] = Status::InvalidArgument(
          "query table has no rows; nothing to match against the lake");
      continue;
    }
    const size_t fetch = std::max(queries[i].k, config_.per_query_candidates);
    groups_by_fetch[fetch].push_back(i);
  }
  for (const auto& [fetch, members] : groups_by_fetch) {
    // Concatenate every member's row embeddings into one batch; offsets
    // remember which slice belongs to which request.
    std::vector<size_t> offsets(members.size() + 1, 0);
    for (size_t m = 0; m < members.size(); ++m) {
      offsets[m + 1] = offsets[m] + queries[members[m]].table->num_rows();
    }
    std::vector<la::Vec> embeddings(offsets.back());
    const auto encode_member = [&](size_t m) {
      obs::ScopedTraceContext trace_scope(trace_ctx);
      obs::Span span("encode");
      span.AddTag("member", static_cast<uint64_t>(m));
      const table::Table& query = *queries[members[m]].table;
      for (size_t r = 0; r < query.num_rows(); ++r) {
        embeddings[offsets[m] + r] = encoder_->EncodeSerialized(
            table::SerializeTableRow(query, r));
      }
    };
    // Encoders are pure functions of the text (embed/embedder.h), so
    // encoding members concurrently is safe and deterministic.
    pool.ParallelFor(members.size(), encode_member);
    std::vector<std::vector<index::SearchHit>> hits;
    {
      obs::Span span("index_search");
      span.AddTag("rows", static_cast<uint64_t>(embeddings.size()));
      hits = index_->SearchBatch(embeddings, fetch, executor);
    }
    const auto fuse_member = [&](size_t m) {
      obs::ScopedTraceContext trace_scope(trace_ctx);
      obs::Span span("fuse");
      span.AddTag("member", static_cast<uint64_t>(m));
      const size_t i = members[m];
      results[i] = FuseTupleHits(hits, offsets[m], offsets[m + 1] - offsets[m],
                                 refs_, queries[i].k);
    };
    pool.ParallelFor(members.size(), fuse_member);
  }
  return results;
}

}  // namespace dust::search

#include "search/tuple_search.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include <cstring>

#include "obs/trace.h"
#include "serve/executor.h"
#include "text/hashing.h"
#include "util/status.h"

namespace dust::search {

namespace {

/// Fuses per-query-tuple hit lists into the top-k lake tuples: a lake
/// tuple's score is its best similarity to any query tuple (so exact copies
/// rank first). Deterministic — ties break by (table, row) provenance.
/// A non-empty `allowed` bitmap (the cascade's surviving tables) drops hits
/// from pruned tables before fusion; empty means every table is allowed.
std::vector<TupleHit> FuseTupleHits(
    const std::vector<std::vector<index::SearchHit>>& per_tuple_hits,
    size_t begin, size_t count, const std::vector<table::TupleRef>& refs,
    size_t k, const std::vector<char>& allowed) {
  std::unordered_map<size_t, double> best_similarity;
  for (size_t t = begin; t < begin + count; ++t) {
    for (const index::SearchHit& hit : per_tuple_hits[t]) {
      if (!allowed.empty() && allowed[refs[hit.id].table_index] == 0) {
        continue;
      }
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
  std::sort(hits.begin(), hits.end(), [](const TupleHit& a, const TupleHit& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    if (a.ref.table_index != b.ref.table_index) {
      return a.ref.table_index < b.ref.table_index;
    }
    return a.ref.row_index < b.ref.row_index;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

/// Chains a value into a running FNV-1a hash (the pipeline SnapshotHash
/// idiom).
uint64_t ChainHash(uint64_t h, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  return text::HashString(std::string_view(bytes, sizeof(v)), h);
}

uint64_t ChainHash(uint64_t h, const std::string& s) {
  return text::HashString(s, h);
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
    // (flat reserves + norms once; sharded partitions the table once).
    index_->AddAll(rows);
    for (size_t r = 0; r < rows.size(); ++r) {
      refs_.push_back({t, r});
    }
  }
  ResetLakeTables(lake);
  RebuildCascadeSignals(lake);
}

Status TupleSearch::UseIndex(std::unique_ptr<index::VectorIndex> index,
                             const std::vector<const table::Table*>& lake) {
  if (index == nullptr) {
    return Status::InvalidArgument("UseIndex requires a non-null index");
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
  refs_.clear();
  refs_.reserve(total_rows);
  for (size_t t = 0; t < lake.size(); ++t) {
    for (size_t r = 0; r < lake[t]->num_rows(); ++r) {
      refs_.push_back({t, r});
    }
  }
  // Same lake-state hash IndexLake computes, so result-cache invalidation
  // behaves identically whichever way the index arrived. Every lake table
  // is treated as live: a persisted index that carries tombstones should be
  // compacted before its lake directory is shrunk to match.
  ResetLakeTables(lake);
  RebuildCascadeSignals(lake);
  index_ = std::move(index);
  return Status::Ok();
}

void TupleSearch::ResetLakeTables(const std::vector<const table::Table*>& lake) {
  tables_.clear();
  tables_.reserve(lake.size());
  size_t first = 0;
  for (const table::Table* t : lake) {
    tables_.push_back(
        {t->name(), t->num_columns(), t->num_rows(), first, false});
    first += t->num_rows();
  }
  num_tables_ = tables_.size();
  mutations_ = 0;
  RecomputeLakeHash();
}

void TupleSearch::RecomputeLakeHash() {
  uint64_t h = ChainHash(0, std::string("dust-tuple-lake-v1"));
  size_t live = 0;
  for (const LakeTable& t : tables_) live += t.removed ? 0 : 1;
  h = ChainHash(h, live);
  for (const LakeTable& t : tables_) {
    if (t.removed) continue;
    h = ChainHash(h, t.name);
    h = ChainHash(h, t.num_columns);
    h = ChainHash(h, t.num_rows);
  }
  // The mutation counter keeps every intermediate lake state distinct:
  // remove b + re-add an identical b yields a different hash than never
  // mutating, so entries cached against the intermediate (b-less) lake can
  // never be served again.
  h = ChainHash(h, mutations_);
  lake_hash_ = h;
}

Status TupleSearch::RemoveTable(const std::string& name) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "no lake index; call IndexLake/UseIndex before mutating");
  }
  for (LakeTable& t : tables_) {
    if (t.removed || t.name != name) continue;
    std::vector<size_t> ids(t.num_rows);
    for (size_t r = 0; r < t.num_rows; ++r) ids[r] = t.first_tuple_id + r;
    index_->RemoveAll(ids);
    t.removed = true;
    ++mutations_;
    RecomputeLakeHash();
    return Status::Ok();
  }
  return Status::NotFound("no live table named " + name + " in the lake");
}

Status TupleSearch::AddTable(const table::Table& table) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "no lake index; call IndexLake/UseIndex before mutating");
  }
  for (const LakeTable& t : tables_) {
    if (!t.removed && t.name == table.name()) {
      return Status::InvalidArgument(
          "a live table named " + table.name() +
          " is already indexed; RemoveTable it first to replace it");
    }
  }
  std::vector<la::Vec> rows = encoder_->EncodeTableRows(table);
  const size_t first = index_->size();
  const size_t table_index = tables_.size();
  index_->AddAll(rows);
  for (size_t r = 0; r < rows.size(); ++r) {
    refs_.push_back({table_index, r});
  }
  tables_.push_back(
      {table.name(), table.num_columns(), table.num_rows(), first, false});
  num_tables_ = tables_.size();
  if (config_.cascade.enabled) {
    lake_signatures_.push_back(cascade::SignatureOf(table));
    if (config_.cascade.prescreen) {
      lake_sketches_.emplace_back(cascade::TableValueSample(table),
                                  config_.cascade.minhash_hashes,
                                  config_.cascade.minhash_seed);
    }
  }
  ++mutations_;
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
  // Renumber the live tables' ranges. Tables were only ever appended, so
  // live entries stay in ascending tuple-id order and the new first id is a
  // running prefix sum over live row counts.
  size_t next = 0;
  for (LakeTable& t : tables_) {
    if (t.removed) continue;
    t.first_tuple_id = next;
    next += t.num_rows;
  }
  index_ = std::move(compacted).value();
  // lake_hash_ stays untouched on purpose: the set of live tuples and all
  // similarities are identical, so results cached pre-compaction remain
  // correct post-compaction.
  return Status::Ok();
}

void TupleSearch::RebuildCascadeSignals(
    const std::vector<const table::Table*>& lake) {
  lake_signatures_.clear();
  lake_sketches_.clear();
  if (!config_.cascade.enabled) return;
  lake_signatures_.reserve(lake.size());
  for (const table::Table* t : lake) {
    lake_signatures_.push_back(cascade::SignatureOf(*t));
  }
  if (config_.cascade.prescreen) {
    lake_sketches_.reserve(lake.size());
    for (const table::Table* t : lake) {
      lake_sketches_.emplace_back(cascade::TableValueSample(*t),
                                  config_.cascade.minhash_hashes,
                                  config_.cascade.minhash_seed);
    }
  }
}

Status TupleSearch::CascadeAllowedTables(const table::Table& query,
                                         std::vector<char>* allowed) const {
  allowed->clear();
  if (!config_.cascade.enabled) return Status::Ok();
  const bool prefilter =
      config_.cascade.prefilter && !lake_signatures_.empty();
  const bool prescreen = config_.cascade.prescreen && !lake_sketches_.empty();
  if (!prefilter && !prescreen) return Status::Ok();
  cascade::CandidateSet set;
  set.n = num_tables_;
  set.tables.reserve(num_tables_);
  // Removed tables never enter the candidate set — their tuples are
  // tombstoned anyway, but excluding them here keeps the stages from
  // scoring signatures of tables that cannot contribute hits.
  for (size_t t = 0; t < num_tables_; ++t) {
    if (t < tables_.size() && tables_[t].removed) continue;
    set.tables.push_back(t);
  }
  std::vector<const cascade::CandidateStage*> stages;
  if (prefilter) {
    set.query_signature = cascade::SignatureOf(query);
    stages.push_back(&prefilter_stage_);
  }
  MinHashSketch query_sketch;
  if (prescreen) {
    query_sketch = MinHashSketch(cascade::TableValueSample(query),
                                 config_.cascade.minhash_hashes,
                                 config_.cascade.minhash_seed);
    set.query_sketch = &query_sketch;
    stages.push_back(&prescreen_stage_);
  }
  DUST_RETURN_IF_ERROR(cascade_.Run(stages, set, nullptr));
  if (set.tables.size() >= num_tables_) return Status::Ok();  // no pruning
  allowed->assign(num_tables_, 0);
  for (size_t t : set.tables) (*allowed)[t] = 1;
  return Status::Ok();
}

void TupleSearch::RegisterCascadeMetrics(serve::Metrics* metrics) const {
  if (!config_.cascade.enabled) return;
  cascade_.RegisterMetrics(metrics);
}

std::string TupleSearch::CascadeStatsSummary() const {
  if (!config_.cascade.enabled) return std::string();
  return cascade_.StatsSummary();
}

uint64_t TupleSearch::QueryFingerprint(const table::Table& query) const {
  uint64_t h = ChainHash(0, std::string("dust-query-fp-v1"));
  h = ChainHash(h, query.num_rows());
  for (const la::Vec& row : encoder_->EncodeTableRows(query)) {
    const auto* bytes = reinterpret_cast<const char*>(row.data());
    h = text::HashString(
        std::string_view(bytes, row.size() * sizeof(float)), h);
  }
  return h;
}

uint64_t TupleSearch::ConfigHash() const {
  uint64_t h = ChainHash(0, std::string("dust-tuple-config-v1"));
  h = ChainHash(h, config_.index_type);
  h = ChainHash(h, config_.per_query_candidates);
  h = ChainHash(h, config_.index_options.hnsw_m);
  h = ChainHash(h, config_.index_options.hnsw_ef_search);
  h = ChainHash(h, config_.index_options.ivf_nlist);
  h = ChainHash(h, config_.index_options.ivf_nprobe);
  h = ChainHash(h, encoder_->name());
  h = ChainHash(h, encoder_->dim());
  // Cascade knobs shape which tables may contribute hits, so cache entries
  // must not cross cascade configs.
  h = cascade::ChainCascadeConfig(h, config_.cascade);
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
    if (executor != nullptr) {
      executor->ParallelFor(members.size(), encode_member);
    } else {
      for (size_t m = 0; m < members.size(); ++m) encode_member(m);
    }
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
      // Per-request cascade: prune candidate tables with the cheap layers
      // before fusion pays attention to their tuples. Stage objects are
      // const-shared, so members cascade concurrently.
      std::vector<char> allowed;
      Status cascade_status =
          CascadeAllowedTables(*queries[i].table, &allowed);
      if (!cascade_status.ok()) {
        results[i] = cascade_status;
        return;
      }
      results[i] = FuseTupleHits(hits, offsets[m], offsets[m + 1] - offsets[m],
                                 refs_, queries[i].k, allowed);
    };
    if (executor != nullptr) {
      executor->ParallelFor(members.size(), fuse_member);
    } else {
      for (size_t m = 0; m < members.size(); ++m) fuse_member(m);
    }
  }
  return results;
}

}  // namespace dust::search

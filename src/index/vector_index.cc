#include "index/vector_index.h"

#include <algorithm>

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "io/index_io.h"
#include "serve/executor.h"
#include "util/status.h"

namespace dust::index {

namespace {

/// The one ranking order of every index: ascending distance, ties toward
/// the lower id.
bool HitBefore(const SearchHit& a, const SearchHit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

}  // namespace

void VectorIndex::AddAll(const std::vector<la::Vec>& vectors) {
  for (const la::Vec& v : vectors) Add(v);
}

bool VectorIndex::Remove(size_t id) {
  if (id >= size()) return false;
  if (dead_.size() < size()) dead_.resize(size(), 0);
  if (dead_[id] != 0) return false;
  dead_[id] = 1;
  ++num_dead_;
  return true;
}

size_t VectorIndex::RemoveAll(const std::vector<size_t>& ids) {
  size_t removed = 0;
  for (size_t id : ids) {
    if (Remove(id)) ++removed;
  }
  return removed;
}

std::vector<size_t> VectorIndex::Tombstones() const {
  std::vector<size_t> ids;
  ids.reserve(num_dead_);
  for (size_t id = 0; id < dead_.size(); ++id) {
    if (dead_[id] != 0) ids.push_back(id);
  }
  return ids;
}

Status VectorIndex::ApplyTombstones(const std::vector<size_t>& ids) {
  for (size_t id : ids) {
    if (id >= size()) {
      return Status::IoError("tombstone id " + std::to_string(id) +
                             " out of range for index of size " +
                             std::to_string(size()));
    }
    if (!Remove(id)) {
      return Status::IoError("duplicate tombstone id " + std::to_string(id));
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<VectorIndex>> VectorIndex::Compact(
    std::vector<size_t>* remap) const {
  std::unique_ptr<VectorIndex> compacted = CloneEmpty();
  remap->assign(size(), kInvalidId);
  std::vector<la::Vec> live;
  live.reserve(live_size());
  la::Vec v;
  for (size_t id = 0; id < size(); ++id) {
    if (IsDead(id)) continue;
    if (!GetVector(id, &v)) {
      return Status::Internal("index type " + type_tag() +
                              " could not reproduce stored vector " +
                              std::to_string(id));
    }
    (*remap)[id] = live.size();
    live.push_back(v);
  }
  // Bulk re-add in ascending id order: the compacted index is exactly what
  // a fresh build over the survivors would produce.
  compacted->AddAll(live);
  return {std::move(compacted)};
}

void FinalizeHits(std::vector<SearchHit>* hits, size_t k) {
  const size_t keep = std::min(k, hits->size());
  if (keep < hits->size()) {
    std::partial_sort(hits->begin(), hits->begin() + keep, hits->end(),
                      HitBefore);
  } else {
    std::sort(hits->begin(), hits->end(), HitBefore);
  }
  if (hits->capacity() > keep) {
    std::vector<SearchHit>(hits->begin(), hits->begin() + keep).swap(*hits);
  }
}

void VectorIndex::OfferLiveHits(const float* distances, size_t first_id,
                                size_t count, size_t k,
                                std::vector<SearchHit>* heap) const {
  size_t i = 0;
  for (; i < count && heap->size() < k; ++i) {
    if (IsDead(first_id + i)) continue;
    heap->push_back({first_id + i, distances[i]});
    std::push_heap(heap->begin(), heap->end(), HitBefore);
  }
  if (heap->empty()) return;
  // Full heap: a candidate must beat the worst kept hit, which needs a
  // distance no larger than the worst's (a NaN never qualifies), so that
  // one compare rejects almost every candidate of a long scan.
  SearchHit worst = heap->front();
  for (; i < count; ++i) {
    if (!(distances[i] <= worst.distance)) continue;
    const SearchHit hit{first_id + i, distances[i]};
    if (!HitBefore(hit, worst) || IsDead(hit.id)) continue;
    std::pop_heap(heap->begin(), heap->end(), HitBefore);
    heap->back() = hit;
    std::push_heap(heap->begin(), heap->end(), HitBefore);
    worst = heap->front();
  }
}

std::vector<std::vector<SearchHit>> VectorIndex::SearchBatch(
    const std::vector<la::Vec>& queries, size_t k,
    serve::Executor* executor) const {
  std::vector<std::vector<SearchHit>> results(queries.size());
  // Concurrent Search calls are safe for every index, so the pool fans out
  // over all queries directly.
  // Each iteration writes only its own slot, and results are per-query, so
  // scheduling order cannot change the output.
  serve::Executor& pool =
      executor != nullptr ? *executor : serve::Executor::Default();
  pool.ParallelFor(queries.size(),
                   [&](size_t i) { results[i] = Search(queries[i], k); });
  return results;
}

Status VectorIndex::Save(const std::string& path) const {
  return io::SaveIndex(*this, path);
}

Status ValidateIndexOptions(const IndexOptions& options) {
  if (options.hnsw_m == 1) {
    return Status::InvalidArgument(
        "hnsw M must be >= 2 (an HNSW graph of degree 1 cannot stay "
        "connected); 0 keeps the default");
  }
  return Status::Ok();
}

std::unique_ptr<VectorIndex> MakeVectorIndex(const std::string& type,
                                             size_t dim, la::Metric metric) {
  return MakeVectorIndex(type, dim, metric, IndexOptions{});
}

std::unique_ptr<VectorIndex> MakeVectorIndex(const std::string& type,
                                             size_t dim, la::Metric metric,
                                             const IndexOptions& options) {
  // A typo must not silently swap the retrieval algorithm. Guarding with
  // IsKnownIndexType keeps validation and dispatch from drifting apart, and
  // dispatching every known name explicitly (instead of a catch-all "flat"
  // fallback) means a type added to IsKnownIndexType but not here aborts
  // loudly rather than silently serving a linear scan.
  DUST_CHECK(IsKnownIndexType(type) && "unknown vector index type");
  DUST_CHECK(ValidateIndexOptions(options).ok() && "invalid index options");
  if (type == "flat") return std::make_unique<FlatIndex>(dim, metric);
  if (type == "hnsw") {
    HnswConfig config;
    if (options.hnsw_m > 0) config.M = options.hnsw_m;
    if (options.hnsw_ef_search > 0) config.ef_search = options.hnsw_ef_search;
    return std::make_unique<HnswIndex>(dim, metric, config);
  }
  DUST_CHECK(false && "IsKnownIndexType and MakeVectorIndex drifted apart");
  return nullptr;
}

bool IsKnownIndexType(const std::string& type) {
  return type == "flat" || type == "hnsw";
}

}  // namespace dust::index

// faiss-style vector index interface. Union search uses an index to
// shortlist candidate tables/tuples before exact re-scoring; the Fig. 2
// note that tuple-level search "requires an index over all tuples in a
// lake" is what these indexes provide.
#ifndef DUST_INDEX_VECTOR_INDEX_H_
#define DUST_INDEX_VECTOR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/distance.h"
#include "la/vector_ops.h"
#include "util/status.h"

namespace dust::io {
class IndexWriter;
class IndexReader;
}  // namespace dust::io

namespace dust::serve {
class Executor;
}  // namespace dust::serve

namespace dust::index {

/// One search hit: the stored vector's id and its distance to the query.
struct SearchHit {
  size_t id = 0;
  float distance = 0.0f;
};

/// Mutable vector index with top-k nearest-neighbor search. Vectors are
/// appended (ids assigned in insertion order) and deleted by tombstone:
/// Remove marks an id dead without touching the stored data, Search never
/// lets a dead id take one of its k slots (so k live hits come back
/// whenever k live vectors exist), and Compact rewrites the index without
/// its tombstones.
/// Mutations are not synchronized against in-flight searches — quiesce
/// traffic before mutating.
class VectorIndex {
 public:
  /// Sentinel id in Compact remaps for vectors that were tombstoned.
  static constexpr size_t kInvalidId = static_cast<size_t>(-1);

  virtual ~VectorIndex() = default;

  /// Appends a vector; its id is the number of vectors added before it.
  virtual void Add(const la::Vec& v) = 0;

  /// Batch append: calls Add per vector, so ids are assigned in order.
  void AddAll(const std::vector<la::Vec>& vectors);

  /// Top-k nearest neighbors by ascending distance (ties by ascending id).
  /// Approximate indexes may miss true neighbors.
  ///
  /// Contract: concurrent Search calls on one index must be safe (the
  /// default SearchBatch fans queries out across threads). An
  /// implementation with lazy build state must synchronize it internally
  /// or override SearchBatch.
  virtual std::vector<SearchHit> Search(const la::Vec& query,
                                        size_t k) const = 0;

  /// Top-k nearest neighbors for every query, result i matching query i,
  /// exactly as calling Search per query. The work fans out across
  /// `executor`'s pooled threads (inline for Executor(0)), or across the
  /// process-wide serve::Executor::Default() pool when `executor` is null;
  /// no call spawns threads of its own. By default each query is one
  /// Search task; FlatIndex overrides it with a blocked scan in which each
  /// task scores a group of queries against its store one cache-sized
  /// block at a time. Results must stay bit-identical across all
  /// scheduling modes. Callers pass the executor, null included: a default
  /// argument on a virtual binds by the caller's static type.
  virtual std::vector<std::vector<SearchHit>> SearchBatch(
      const std::vector<la::Vec>& queries, size_t k,
      serve::Executor* executor) const;

  /// Tombstones the vector with this id. Returns false (and changes
  /// nothing) when the id is out of range or already dead. The id stays
  /// valid — size() is unchanged, and graph indexes may keep the dead
  /// vector as a routing waypoint — but Search never returns it again.
  bool Remove(size_t id);

  /// Tombstones every id in `ids`; returns how many were newly removed
  /// (out-of-range and already-dead ids are skipped, matching Remove).
  size_t RemoveAll(const std::vector<size_t>& ids);

  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  virtual std::string name() const = 0;
  virtual la::Metric metric() const = 0;

  /// Number of vectors Search can still return: size() minus tombstones.
  size_t live_size() const { return size() - num_dead_; }

  /// Number of tombstoned ids.
  size_t num_tombstones() const { return num_dead_; }

  /// True when `id` has been tombstoned.
  bool IsDead(size_t id) const {
    return id < dead_.size() && dead_[id] != 0;
  }

  /// All tombstoned ids in ascending order — what io::WriteIndex persists.
  std::vector<size_t> Tombstones() const;

  /// Marks every id in `ids` dead, rejecting out-of-range and duplicate
  /// ids with IoError (the loader path: a corrupt tombstone list must not
  /// half-apply).
  Status ApplyTombstones(const std::vector<size_t>& ids);

  /// Copies the stored vector for `id` (dead or alive) into `*out`.
  /// Returns false when the id is out of range. The raw-data hook Compact
  /// is built on.
  virtual bool GetVector(size_t id, la::Vec* out) const = 0;

  /// Rebuilds this index without its tombstones: live vectors are re-added
  /// in ascending id order to a fresh index with the same config.
  /// `*remap` gets one entry per old id — the new id for live vectors,
  /// kInvalidId for tombstoned ones — so callers can rewrite their own
  /// id-keyed state. An exact index type (flat) returns bit-identical
  /// search results to the tombstoned original; approximate types may
  /// re-rank as a rebuild would.
  virtual Result<std::unique_ptr<VectorIndex>> Compact(
      std::vector<size_t>* remap) const;

  /// Stable on-disk type name — the same string MakeVectorIndex accepts
  /// ("flat", "hnsw").
  virtual std::string type_tag() const = 0;

  /// Writes the type-specific payload (config + contents) after the common
  /// header io::WriteIndex emits. An index with lazy build state must
  /// finalize it first so the file never contains a half-built structure.
  virtual Status SavePayload(io::IndexWriter* writer) const = 0;

  /// Restores the payload into a freshly-constructed index of the same
  /// type/dim/metric. Corrupt input yields a Status error, never an abort;
  /// on error the index is unusable and must be discarded.
  virtual Status LoadPayload(io::IndexReader* reader) = 0;

  /// Saves this index as a standalone file (io::SaveIndex). Load the result
  /// back with io::LoadIndex, which restores the concrete type; round-trip
  /// Search/SearchBatch results are bit-identical.
  Status Save(const std::string& path) const;

 protected:
  /// A fresh, empty index with this index's config (dim, metric, tuning
  /// knobs). The construction hook Compact is built on.
  virtual std::unique_ptr<VectorIndex> CloneEmpty() const = 0;

  /// Offers the live ids among first_id + i, i < count, scored
  /// distances[i], to `heap`: a max-heap of at most k hits under
  /// FinalizeHits's order, its worst hit at the front. A candidate enters
  /// only while the heap is short or when it beats the front, so the heap
  /// holds the k best live hits offered so far; FinalizeHits then sorts it.
  /// Tombstoned ids are skipped here, after scoring.
  void OfferLiveHits(const float* distances, size_t first_id, size_t count,
                     size_t k, std::vector<SearchHit>* heap) const;

  /// Tombstone bitmap, sized lazily on first Remove (append-heavy indexes
  /// pay nothing until a delete happens). dead_[id] != 0 => tombstoned.
  std::vector<uint8_t> dead_;
  size_t num_dead_ = 0;
};

/// Keeps the k best hits in ascending (distance, id) order. Distinct ids
/// make that a strict total order, so the kept list is exactly the first k
/// of a full sort; it is selected (partial_sort) rather than sorted, and
/// the vector comes back with capacity for the kept hits only.
void FinalizeHits(std::vector<SearchHit>* hits, size_t k);

/// Optional per-type tuning knobs consumed by MakeVectorIndex. A field set
/// to 0 keeps that type's built-in default; fields for other index types
/// are ignored. This is how the pipeline config and CLI expose HNSW
/// parameters without every caller naming a concrete config struct.
struct IndexOptions {
  /// HNSW max neighbors per node on layers > 0 (HnswConfig::M). Must be
  /// >= 2 when set — ValidateIndexOptions rejects 1.
  size_t hnsw_m = 0;
  /// HNSW query beam width (HnswConfig::ef_search).
  size_t hnsw_ef_search = 0;
};

/// InvalidArgument when `options` carries a value no index can serve (e.g.
/// hnsw_m == 1: an HNSW graph needs degree >= 2 to stay connected). The
/// boundary check for user input; MakeVectorIndex treats a failure as a
/// programming error and aborts.
Status ValidateIndexOptions(const IndexOptions& options);

/// Builds an index by type name: "flat" or "hnsw". Unknown names
/// abort (DUST_CHECK) — a typo must not silently change algorithms.
std::unique_ptr<VectorIndex> MakeVectorIndex(const std::string& type,
                                             size_t dim, la::Metric metric);

/// As above with tuning knobs applied.
std::unique_ptr<VectorIndex> MakeVectorIndex(const std::string& type,
                                             size_t dim, la::Metric metric,
                                             const IndexOptions& options);

/// True when MakeVectorIndex accepts `type`. The single source of truth for
/// user-facing validation (CLI flags, config files).
bool IsKnownIndexType(const std::string& type);

}  // namespace dust::index

#endif  // DUST_INDEX_VECTOR_INDEX_H_

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
/// Remove marks an id dead without touching the stored data, Search skips
/// dead ids before scoring (so k live hits come back whenever k live
/// vectors exist), and Compact rewrites the index without its tombstones.
/// Mutations are not synchronized against in-flight searches — quiesce
/// traffic before mutating, exactly as with SetExecutor.
class VectorIndex {
 public:
  /// Sentinel id in Compact remaps for vectors that were tombstoned.
  static constexpr size_t kInvalidId = static_cast<size_t>(-1);

  virtual ~VectorIndex() = default;

  /// Appends a vector; its id is the number of vectors added before it.
  virtual void Add(const la::Vec& v) = 0;

  /// Batch append, equivalent to calling Add per vector (ids assigned in
  /// order). Virtual so indexes with a cheaper bulk path can override it:
  /// FlatIndex reserves storage and fills its norm cache in one pass.
  virtual void AddAll(const std::vector<la::Vec>& vectors);

  /// Top-k nearest neighbors by ascending distance (ties by ascending id).
  /// Approximate indexes may miss true neighbors.
  ///
  /// Contract: concurrent Search calls on one index must be safe (the
  /// default SearchBatch fans queries out across threads). Implementations
  /// with lazy build state must synchronize it internally (see IvfFlatIndex
  /// Train locking) or override SearchBatch.
  virtual std::vector<SearchHit> Search(const la::Vec& query,
                                        size_t k) const = 0;

  /// Top-k nearest neighbors for every query, result i matching query i.
  /// Routes through the executor installed with SetExecutor (none by
  /// default, meaning serve::Executor::Default()). Exactly equivalent to
  /// calling Search per query regardless of how the work is scheduled.
  std::vector<std::vector<SearchHit>> SearchBatch(
      const std::vector<la::Vec>& queries, size_t k) const {
    return SearchBatch(queries, k, executor_);
  }

  /// As above with an explicit executor: the queries fan out across its
  /// pooled threads (inline for Executor(0)), or across the process-wide
  /// serve::Executor::Default() pool when `executor` is null; no call
  /// spawns threads of its own. Subclasses may override with fused kernels;
  /// results must stay bit-identical across all scheduling modes.
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
  /// id-keyed state. Exact index types (flat; ivf at full probe) return
  /// bit-identical search results to the tombstoned original; approximate
  /// types may re-rank as a rebuild would.
  virtual Result<std::unique_ptr<VectorIndex>> Compact(
      std::vector<size_t>* remap) const;

  /// Stable on-disk type name — the same string MakeVectorIndex accepts
  /// ("flat", "hnsw", "ivf").
  virtual std::string type_tag() const = 0;

  /// Writes the type-specific payload (config + contents) after the common
  /// header io::WriteIndex emits. Indexes with lazy build state (IVF) must
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

  /// Installs a shared executor for the parameterless SearchBatch's
  /// fan-out. nullptr (the default) means serve::Executor::Default(). Not
  /// synchronized against in-flight searches — install during serving
  /// setup, before traffic. The executor must outlive the index or be unset
  /// before destruction.
  void SetExecutor(serve::Executor* executor) { executor_ = executor; }
  serve::Executor* executor() const { return executor_; }

 protected:
  /// A fresh, empty index with this index's config (dim, metric, tuning
  /// knobs). The construction hook Compact is built on.
  virtual std::unique_ptr<VectorIndex> CloneEmpty() const = 0;

  serve::Executor* executor_ = nullptr;
  /// Tombstone bitmap, sized lazily on first Remove (append-heavy indexes
  /// pay nothing until a delete happens). dead_[id] != 0 => tombstoned.
  std::vector<uint8_t> dead_;
  size_t num_dead_ = 0;
};

/// Sorts hits ascending by (distance, id) and truncates to k.
void FinalizeHits(std::vector<SearchHit>* hits, size_t k);

/// Optional per-type tuning knobs consumed by MakeVectorIndex. A field set
/// to 0 keeps that type's built-in default; fields for other index types
/// are ignored. This is how the pipeline config and CLI expose HNSW/IVF
/// parameters without every caller naming a concrete config struct.
struct IndexOptions {
  /// HNSW max neighbors per node on layers > 0 (HnswConfig::M). Must be
  /// >= 2 when set — ValidateIndexOptions rejects 1.
  size_t hnsw_m = 0;
  /// HNSW query beam width (HnswConfig::ef_search).
  size_t hnsw_ef_search = 0;
  /// IVF inverted-list count (IvfConfig::nlist).
  size_t ivf_nlist = 0;
  /// IVF lists probed per query (IvfConfig::nprobe).
  size_t ivf_nprobe = 0;
};

/// InvalidArgument when `options` carries a value no index can serve (e.g.
/// hnsw_m == 1: an HNSW graph needs degree >= 2 to stay connected). The
/// boundary check for user input; MakeVectorIndex treats a failure as a
/// programming error and aborts.
Status ValidateIndexOptions(const IndexOptions& options);

/// Builds an index by type name: "flat", "ivf", or "hnsw". Unknown names
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

// Sharded lake index — the architectural seam toward multi-node serving.
//
// The paper's tuple-level search "requires an index over all tuples in a
// lake"; at production scale that single index is the memory and latency
// ceiling, so systems in this space (Starmie's HNSW-backed discovery,
// EasyTUS-style large-lake union search) partition the lake once it
// outgrows one index. ShardedIndex implements index::VectorIndex by
// splitting the vectors across N child indexes of one concrete type:
//
//   - placement: round-robin (balanced by construction) or hash of the
//     vector's bytes (content-addressed, the policy a distributed router
//     can compute without coordination);
//   - ids: callers see the same global append-order ids an unsharded index
//     would assign; the shard keeps the global-id <-> (shard, local-id)
//     mapping;
//   - search: scatter-gather — every shard answers top-k for the query,
//     per-shard hits are remapped to global ids and k-way merged with
//     FinalizeHits semantics (ascending distance, ties by ascending global
//     id). For exact child indexes (flat, full-probe IVF) the result is
//     bit-identical to the unsharded index over the same vectors;
//   - persistence: the payload is a shard manifest (magic + child type +
//     placement + id mapping) followed by each shard serialized with the
//     standard index format, so sharded lakes round-trip through
//     Save/io::LoadIndex and pipeline snapshots.
#ifndef DUST_SHARD_SHARDED_INDEX_H_
#define DUST_SHARD_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/vector_index.h"

namespace dust::shard {

/// How Add routes a vector to a shard. Values are the on-disk tags — never
/// reorder existing ones.
enum class PlacementPolicy : uint8_t {
  kRoundRobin = 0,  ///< shard = insertion order % num_shards (balanced)
  kHash = 1,        ///< shard = FNV-1a(vector bytes) % num_shards
};

/// Stable name used in sharded specs and diagnostics ("round_robin",
/// "hash").
const char* PlacementPolicyName(PlacementPolicy policy);
/// Inverse of PlacementPolicyName; false for unknown names.
bool PlacementPolicyFromName(const std::string& name, PlacementPolicy* policy);
/// On-disk tag -> policy; IoError for unknown tags (corrupt files must
/// surface as errors, not aborts).
Status PlacementPolicyFromTag(uint8_t tag, PlacementPolicy* policy);

struct ShardedIndexConfig {
  /// Concrete type of every shard: "flat", "ivf", or "hnsw".
  /// Nesting sharded-in-sharded is rejected.
  std::string child_type = "flat";
  size_t num_shards = 4;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  /// Tuning knobs forwarded to every shard's constructor.
  index::IndexOptions child_options;
};

/// Parses "sharded[:<type>[:<n>[:<placement>]]]" into `config` (missing
/// fields keep ShardedIndexConfig defaults). False — leaving `config`
/// unspecified — for anything malformed: unknown child type, nested
/// "sharded", zero/non-numeric shard count, unknown placement name.
bool ParseShardedSpec(const std::string& spec, ShardedIndexConfig* config);

/// True when `spec` names the sharded index family (i.e. is "sharded" or
/// starts with "sharded:"), whether or not the rest parses.
bool IsShardedSpec(const std::string& spec);

/// Vector index partitioned across N child indexes with scatter-gather
/// search. Thread-safety matches the base contract: concurrent Search
/// calls are safe (each child's are).
class ShardedIndex : public index::VectorIndex {
 public:
  ShardedIndex(size_t dim, la::Metric metric = la::Metric::kCosine,
               ShardedIndexConfig config = {});

  void Add(const la::Vec& v) override;
  /// Partitions the batch by placement policy and bulk-loads each shard
  /// once, so shards with a bulk AddAll (flat) keep their fast path.
  void AddAll(const std::vector<la::Vec>& vectors) override;

  /// Scatter-gather: every shard answers top-k, hits merge deterministically
  /// in shard order. The scatter is one ParallelFor on the installed
  /// executor (SetExecutor), or on serve::Executor::Default() without one;
  /// a single shard runs inline.
  std::vector<index::SearchHit> Search(const la::Vec& query,
                                       size_t k) const override;
  using index::VectorIndex::SearchBatch;
  /// Scatter-gather batch: each shard answers the whole batch with its own
  /// (internally parallel) SearchBatch, then per-query hits are merged.
  /// Shards are scanned sequentially on purpose — a child's SearchBatch
  /// already fans out across cores, and nesting another parallel layer on
  /// top would oversubscribe them. `executor` is forwarded to the children.
  std::vector<std::vector<index::SearchHit>> SearchBatch(
      const std::vector<la::Vec>& queries, size_t k,
      serve::Executor* executor) const override;

  /// Installs the executor on this index and every shard, so both the
  /// per-query scatter and the children's batch fan-out reuse one pool.
  void SetExecutor(serve::Executor* executor) override;

  /// Routes the removal to the owning shard via the (lazily built) global
  /// -> (shard, local) map, then mirrors the tombstone at the global level
  /// so IsDead/Tombstones see the same ids an unsharded index would.
  bool Remove(size_t id) override;

  /// Each child persists its own tombstones inside the manifest's embedded
  /// index files; the top-level v2 section stays empty to avoid applying
  /// them twice, and LoadPayload rebuilds the global view from the
  /// children.
  bool TombstonesInPayload() const override { return true; }

  /// Routes to the owning shard's stored vector (for Compact).
  bool GetVector(size_t id, la::Vec* out) const override;

  size_t size() const override { return total_; }
  size_t dim() const override { return dim_; }
  std::string name() const override;
  la::Metric metric() const override { return metric_; }
  std::string type_tag() const override { return "sharded"; }

  /// Writes the shard manifest followed by every shard in the standard
  /// io::WriteIndex format (header + payload), so each shard carries its
  /// own config and could be split back out into a standalone file.
  Status SavePayload(io::IndexWriter* writer) const override;
  /// Restores a manifest, validating it structurally (known child type and
  /// placement, id mapping a bijection onto [0, size), every shard's
  /// type/dim/metric/size against the manifest) before trusting any of it.
  Status LoadPayload(io::IndexReader* reader) override;

  const ShardedIndexConfig& config() const { return config_; }
  size_t num_shards() const { return shards_.size(); }
  const index::VectorIndex& shard(size_t s) const { return *shards_[s]; }
  /// Vectors currently placed in shard `s`.
  size_t shard_size(size_t s) const { return shard_ids_[s].size(); }
  /// Global id of shard `s`'s local id `local` (exposed for tests).
  size_t global_id(size_t s, size_t local) const {
    return shard_ids_[s][local];
  }

  /// Moves shard `s` and its local->global id mapping out, for serving one
  /// shard of a saved sharded lake as a standalone process (dust_shardd).
  /// Consumes this index: after any TakeShard the ShardedIndex must only be
  /// destroyed, never searched or saved.
  std::unique_ptr<index::VectorIndex> TakeShard(
      size_t s, std::vector<size_t>* global_ids);

 protected:
  /// Compacted rebuilds re-place every survivor under the same policy —
  /// exactly the index a fresh build over the survivors would produce.
  std::unique_ptr<index::VectorIndex> CloneEmpty() const override {
    return std::make_unique<ShardedIndex>(dim_, metric_, config_);
  }

 private:
  /// Shard the next Add lands in under the configured placement policy.
  size_t PlaceShard(const la::Vec& v) const;

  /// (Re)builds removal_map_ when it is stale (appends bump total_ past its
  /// size; LoadPayload clears it).
  void EnsureRemovalMap() const;

  size_t dim_;
  la::Metric metric_;
  ShardedIndexConfig config_;
  std::vector<std::unique_ptr<index::VectorIndex>> shards_;
  /// shard_ids_[s][local] = global id — the gather-side mapping. The
  /// scatter side (global -> shard) only exists implicitly: ids are
  /// assigned at Add time and never looked up by global id.
  std::vector<std::vector<size_t>> shard_ids_;
  /// Inverse of shard_ids_ — removal_map_[global] = (shard, local id) —
  /// built lazily on the first Remove/GetVector and kept until the id
  /// space changes (appends rebuild it by size mismatch, loads clear it).
  mutable std::vector<std::pair<size_t, size_t>> removal_map_;
  size_t total_ = 0;
};

}  // namespace dust::shard

#endif  // DUST_SHARD_SHARDED_INDEX_H_

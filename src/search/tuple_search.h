// Tuple-level search — the "Starmie" baseline of Sec. 6.5.1: every data
// lake tuple is indexed as if it were a one-row table, and the k tuples
// most similar to the query table are returned. Because the ranking is pure
// similarity, near-copies of query tuples surface first (the redundancy
// DUST is designed to avoid).
#ifndef DUST_SEARCH_TUPLE_SEARCH_H_
#define DUST_SEARCH_TUPLE_SEARCH_H_

#include <memory>

#include "embed/tuple_encoder.h"
#include "index/vector_index.h"
#include "search/lake_catalog.h"
#include "table/table.h"
#include "util/status.h"

namespace dust::serve {
class Executor;
}  // namespace dust::serve

namespace dust::search {

struct TupleHit {
  table::TupleRef ref;
  double similarity = 0.0;  // max similarity to any query tuple
};

struct TupleSearchConfig {
  /// "flat" or "hnsw".
  std::string index_type = "flat";
  /// Per-query-tuple candidates fetched from the index before fusion.
  size_t per_query_candidates = 200;
  /// Tuning knobs forwarded to the tuple index (0 keeps defaults).
  index::IndexOptions index_options;
};

/// Indexes all tuples of a lake with a TupleEncoder and retrieves the top-k
/// most similar tuples to a query table.
class TupleSearch {
 public:
  TupleSearch(std::shared_ptr<embed::TupleEncoder> encoder,
              TupleSearchConfig config = {});

  /// One request of a serving batch: a query table and its k.
  struct TupleQuery {
    const table::Table* table = nullptr;
    size_t k = 0;
  };

  /// Encodes and indexes every row of every lake table.
  void IndexLake(const std::vector<const table::Table*>& lake);

  /// Installs an already-built tuple index over `lake` instead of encoding
  /// and building one — typically an index loaded from disk. The index
  /// must cover exactly the lake's tuples in append order: its size must
  /// equal the lake's total row count, its type must be config().index_type
  /// (ConfigHash, the cache namespace, names that type), and its dim/metric
  /// must match the encoder (cosine). Builds refs_ and the lake-state hash
  /// exactly as IndexLake would, so caching and query semantics are
  /// unchanged. A table whose tuples are all tombstoned in `index` (saved
  /// after RemoveTable, before CompactIndex) stays removed; a table with
  /// only some tuples tombstoned is FailedPrecondition. A failed call
  /// changes nothing.
  Status UseIndex(std::unique_ptr<index::VectorIndex> index,
                  const std::vector<const table::Table*>& lake);

  /// The installed lake index; nullptr before IndexLake/UseIndex. Exposed
  /// so a CLI can persist the built index (io::SaveIndex) for a later
  /// UseIndex.
  const index::VectorIndex* lake_index() const { return index_.get(); }

  // --- lake mutations ------------------------------------------------------
  //
  // A lake is no longer frozen at IndexLake time: tables can be deleted and
  // added while the process keeps serving. Deletes tombstone the table's
  // tuple-id range in the index (never given a top-k slot, so top-k still
  // returns k live tuples whenever k exist); adds encode and append. Every
  // mutation bumps LakeStateHash, so the serving result cache and snapshot
  // staleness checks invalidate automatically — a mutated lake never serves
  // a pre-mutation cached hit. Mutations are not synchronized against
  // in-flight searches; quiesce the server first.

  /// Tombstones every tuple of the live table named `name`. NotFound if no
  /// live table has that name; FailedPrecondition before IndexLake/UseIndex.
  Status RemoveTable(const std::string& name);

  /// Encodes and appends `table` as a new lake table. InvalidArgument if a
  /// live table already carries its name (RemoveTable it first — re-adding
  /// under the same name is how a table is replaced in place).
  Status AddTable(const table::Table& table);

  /// Rewrites the index without tombstones (index::VectorIndex::Compact)
  /// and renumbers tuple ids/refs under the returned remap. Results are
  /// preserved exactly: live tuples keep their relative order, similarities
  /// are untouched, and LakeStateHash does not change (compaction is a
  /// representation change, not a lake mutation), so cached results stay
  /// valid. Assumes tombstones came from RemoveTable (whole-table ranges).
  Status CompactIndex();

  /// Live (non-tombstoned) tuples in the lake index; 0 before indexing.
  size_t lake_live_vectors() const {
    return index_ ? index_->live_size() : 0;
  }
  /// Tombstoned tuples awaiting compaction.
  size_t lake_tombstoned_vectors() const {
    return index_ ? index_->num_tombstones() : 0;
  }
  /// Every table ever indexed (a removed one keeps its slot, so TupleRef
  /// table_index values stay stable) and the count of RemoveTable/AddTable
  /// calls since the lake was (re)indexed.
  const LakeCatalog& catalog() const { return catalog_; }

  /// Top-k lake tuples by maximum cosine similarity to any query tuple.
  /// A bad request is rejected, never fatal: FailedPrecondition before
  /// IndexLake/UseIndex has run, InvalidArgument for a query table with no
  /// rows.
  Result<std::vector<TupleHit>> SearchTuplesChecked(const table::Table& query,
                                                    size_t k) const;

  /// Answers a micro-batch of requests through as few index SearchBatch
  /// calls as possible: requests with the same candidate fetch depth (and
  /// they all share it unless per-request k exceeds per_query_candidates)
  /// are encoded into one embedding batch and dispatched in one call.
  /// Result i corresponds to queries[i] and is bit-identical to a
  /// sequential SearchTuplesChecked(queries[i]) — per-request statuses, so
  /// one malformed request cannot fail its batch-mates. Encoding, index
  /// fan-out, and per-request fusion run on `executor`, or on
  /// serve::Executor::Default() when it is null; a one-member batch encodes
  /// and fuses on the calling thread.
  std::vector<Result<std::vector<TupleHit>>> SearchTuplesBatch(
      const std::vector<TupleQuery>& queries,
      serve::Executor* executor = nullptr) const;

  size_t num_indexed() const { return refs_.size(); }
  const table::TupleRef& ref(size_t id) const { return refs_[id]; }
  const TupleSearchConfig& config() const { return config_; }

  /// FNV-1a fingerprint over the query's encoded row vectors — the result
  /// cache's query identity. Two tables that encode identically fingerprint
  /// identically (encoders are pure functions of the serialization), so
  /// they would receive bit-identical results and may share a cache entry.
  uint64_t QueryFingerprint(const table::Table& query) const;

  /// FNV-1a hash of every config knob that shapes results (index type and
  /// options, candidate depth, encoder identity). Cache keys carry it so
  /// two servers with different configs never share entries.
  uint64_t ConfigHash() const;

  /// Hash of the indexed lake's shape (live table names, row/column counts)
  /// chained with the mutation counter; recomputed by IndexLake and by
  /// every RemoveTable/AddTable; 0 before any lake is indexed. The result
  /// cache's staleness guard: a re-indexed, swapped, or mutated lake
  /// changes the hash, invalidating every entry computed against the old
  /// lake — and because the mutation counter is chained in, removing a
  /// table and re-adding an identical one still yields a fresh hash
  /// (entries from the intermediate states can never resurrect). Like the
  /// pipeline SnapshotHash, it detects reshaped lakes, not in-place cell
  /// edits.
  uint64_t LakeStateHash() const { return lake_hash_; }

 private:
  /// Recomputes lake_hash_ from the catalog's live tables and mutations.
  void RecomputeLakeHash();

  std::shared_ptr<embed::TupleEncoder> encoder_;
  TupleSearchConfig config_;
  std::unique_ptr<index::VectorIndex> index_;
  /// Tuple id -> (table slot, row); the only tuple-to-table map, kept in
  /// step with the index through mutations and compaction.
  std::vector<table::TupleRef> refs_;
  uint64_t lake_hash_ = 0;
  LakeCatalog catalog_;
};

}  // namespace dust::search

#endif  // DUST_SEARCH_TUPLE_SEARCH_H_

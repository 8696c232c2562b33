// Exact (brute-force) index: linear scan over all stored vectors.
//
// The store is one contiguous row-major float buffer plus a norm per row.
// Search and SearchBatch share one scan. Query rows are taken in groups of
// kGroupRows, and a group is scored against the store one block of
// kBlockRows rows at a time: each block is read into cache once per group
// instead of once per row. Every row keeps its k best live hits in a
// k-bounded heap, so no row builds a hit list the size of the store.
// SearchBatch runs the groups on serve::Executor::Current(); Search is the
// same scan with one row, on the caller. Selection under the (distance, id)
// order is exact, so hits are bit-identical to a full sort of every distance.
#ifndef DUST_INDEX_FLAT_INDEX_H_
#define DUST_INDEX_FLAT_INDEX_H_

#include "index/vector_index.h"

namespace dust::index {

/// Exact nearest-neighbor search under a configurable metric.
class FlatIndex : public VectorIndex {
 public:
  /// Query rows scored together against each block; one executor task.
  static constexpr size_t kGroupRows = 8;
  /// Store rows per scan block: 128 KiB at the tuple encoder's 64 dims, so
  /// a block stays in L2 while a group's rows are scored against it.
  static constexpr size_t kBlockRows = 512;

  explicit FlatIndex(size_t dim, la::Metric metric = la::Metric::kCosine)
      : dim_(dim), metric_(metric) {}

  /// Appends one row to the store; the buffer grows geometrically, so a
  /// bulk AddAll over many tables re-copies it only O(log n) times.
  void Add(const la::Vec& v) override;
  std::vector<SearchHit> Search(const la::Vec& query, size_t k) const override;
  std::vector<std::vector<SearchHit>> SearchBatch(
      const std::vector<la::Vec>& queries, size_t k) const override;

  size_t size() const override { return norms_.size(); }
  size_t dim() const override { return dim_; }
  std::string name() const override { return "Flat"; }
  la::Metric metric() const override { return metric_; }
  std::string type_tag() const override { return "flat"; }

  Status SavePayload(io::IndexWriter* writer) const override;
  Status LoadPayload(io::IndexReader* reader) override;

  bool GetVector(size_t id, la::Vec* out) const override;

 protected:
  std::unique_ptr<VectorIndex> CloneEmpty() const override {
    return std::make_unique<FlatIndex>(dim_, metric_);
  }

 private:
  /// The one flat scan: top-k hits for queries[0, rows), one claim per
  /// group of rows on serve::Executor::Current().
  std::vector<std::vector<SearchHit>> Scan(const la::Vec* queries,
                                           size_t rows, size_t k) const;

  size_t dim_;
  la::Metric metric_;
  /// size() rows of dim_ floats, row-major; row id starts at id * dim_.
  std::vector<float> data_;
  /// norms_[id] = Norm(row id), maintained by Add/LoadPayload so the cosine
  /// scan needs one dot product per candidate.
  std::vector<float> norms_;
};

}  // namespace dust::index

#endif  // DUST_INDEX_FLAT_INDEX_H_

// D3L-style union search (Bogatu et al., ICDE'20): aggregates several
// column-level unionability signals — header-name similarity, value overlap
// (MinHash Jaccard), format similarity (character-3-gram Jaccard), and word-
// embedding similarity — into a column score, then scores a table by a
// greedy one-to-one matching of its columns to the query's.
#ifndef DUST_SEARCH_OVERLAP_SEARCH_H_
#define DUST_SEARCH_OVERLAP_SEARCH_H_

#include <memory>

#include "embed/embedder.h"
#include "search/minhash.h"
#include "search/union_search.h"

namespace dust::search {

struct OverlapSearchConfig {
  size_t embedding_dim = 64;
  uint64_t seed = 4242;
};

class OverlapUnionSearch : public UnionSearch {
 public:
  explicit OverlapUnionSearch(OverlapSearchConfig config = {});

  void IndexLake(const std::vector<const table::Table*>& lake) override;
  std::vector<TableHit> SearchTables(const table::Table& query,
                                     size_t n) const override;
  std::string name() const override { return "D3L"; }

 private:
  /// Per-column signature used by all signals.
  struct ColumnSignature {
    std::vector<std::string> name_tokens;
    MinHashSketch values;
    MinHashSketch format;  // 3-gram sketch
    la::Vec embedding;
  };

  ColumnSignature SignColumn(const table::Column& column) const;
  double ColumnScore(const ColumnSignature& a, const ColumnSignature& b) const;

  OverlapSearchConfig config_;
  std::shared_ptr<embed::TextEmbedder> embedder_;
  std::vector<std::vector<ColumnSignature>> lake_signatures_;
};

}  // namespace dust::search

#endif  // DUST_SEARCH_OVERLAP_SEARCH_H_

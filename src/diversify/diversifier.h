// Tuple diversification interface (Sec. 5): given embeddings of the query
// tuples and of the unionable data lake tuples, select k lake tuples that
// are diverse among themselves and from the query.
#ifndef DUST_DIVERSIFY_DIVERSIFIER_H_
#define DUST_DIVERSIFY_DIVERSIFIER_H_

#include <string>
#include <vector>

#include "la/distance.h"

namespace dust::diversify {

struct DiversifyInput {
  /// E_Q: query tuple embeddings (may be empty for query-agnostic methods).
  const std::vector<la::Vec>* query = nullptr;
  /// E_T: unionable data lake tuple embeddings.
  const std::vector<la::Vec>* lake = nullptr;
  /// Tuple distance function delta(.) — cosine in all paper experiments.
  la::Metric metric = la::Metric::kCosine;
  /// Optional provenance: table id of each lake tuple (used by DUST's
  /// per-table pruning, Sec. 5.1). May be null.
  const std::vector<size_t>* table_of = nullptr;
};

/// Selects k diverse lake tuples; returns indices into `input.lake`.
class Diversifier {
 public:
  virtual ~Diversifier() = default;

  /// Returns min(k, lake size) distinct indices.
  virtual std::vector<size_t> SelectDiverse(const DiversifyInput& input,
                                            size_t k) = 0;

  virtual std::string name() const = 0;
};

/// Mean distance from lake tuple `t` to all query tuples (0 if no query).
float MeanDistanceToQuery(const DiversifyInput& input, size_t t);

/// Min distance from lake tuple `t` to all query tuples (+inf if no query).
float MinDistanceToQuery(const DiversifyInput& input, size_t t);

}  // namespace dust::diversify

#endif  // DUST_DIVERSIFY_DIVERSIFIER_H_

// The two steps of table search. EmbeddingUnionSearch::SearchTables runs
// them in order over the live lake tables: the vector shortlist over table
// profiles (a no-op unless a shortlist is configured), then the exact
// rerank, which runs Starmie's bipartite matching only for tables whose
// cheap upper bound can still reach the top n. Each step narrows one
// CandidateSet and reports its in/out counts and elapsed time as
// StageStats.
#ifndef DUST_SEARCH_CASCADE_STAGES_H_
#define DUST_SEARCH_CASCADE_STAGES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "index/vector_index.h"
#include "la/vector_ops.h"
#include "search/union_search.h"
#include "util/status.h"

namespace dust::search::cascade {

/// Empty: the type prefilter and MinHash prescreen it configured are gone.
/// Kept only because perfbench's replay of the pipeline constructor copies
/// PipelineConfig::cascade into EmbeddingSearchConfig::cascade; it goes
/// with that replay.
struct CascadeConfig {};

/// Chains the retired cascade knobs' defaults into `h`, as the snapshot
/// staleness hash and the tuple-search config hash chained the knobs when
/// they existed. Hashes already stored in snapshot headers and cache keys
/// keep their values.
uint64_t ChainRetiredCascadeDefaults(uint64_t h);

/// What one step did to one query's candidate set.
struct StageStats {
  std::string stage;
  size_t in = 0;
  size_t out = 0;
  double micros = 0.0;
};

/// The state a query threads through the two steps: the surviving
/// candidate table ids, and the ranked hits the rerank fills in.
struct CandidateSet {
  /// Final result size requested (the rerank truncates to it).
  size_t n = 0;
  /// The query's table profile; the shortlist fails closed with an
  /// Internal error when it needs one and finds null.
  const la::Vec* query_profile = nullptr;
  /// Surviving candidate lake-table ids, narrowed step by step.
  std::vector<size_t> tables;
  /// Ranked results, filled by the rerank.
  std::vector<TableHit> hits;
};

/// Vector shortlist over table profiles. With every profile still a
/// candidate it delegates to `index` exactly (approximate indexes keep
/// their behaviour bit for bit); with a narrowed set (tables removed from
/// the lake) it scores the survivors exactly and applies FinalizeHits
/// semantics. `shortlist == 0` or a null index passes every candidate on
/// to the rerank.
class VectorShortlistStage {
 public:
  VectorShortlistStage(const index::VectorIndex* index,
                       const std::vector<la::Vec>* profiles, size_t shortlist)
      : index_(index), profiles_(profiles), shortlist_(shortlist) {}

  /// Errors mean a wiring bug (missing query profile, candidate id out of
  /// range), never a bad query.
  Status Run(CandidateSet& set) const;

 private:
  const index::VectorIndex* index_;
  const std::vector<la::Vec>* profiles_;
  size_t shortlist_;
};

/// Exact rerank, bound-and-verify. Takes an upper bound for every
/// surviving candidate, `bounds[i]` for `set.tables[i]`, then runs the
/// exact `scorer` in descending bound order (ties toward lower ids) and
/// stops once no remaining bound can reach the n-th best exact score. Hits
/// are ranked descending by (score, id), truncated to `set.n`, and equal a
/// full exact sort of every candidate, bit for bit.
///
/// `scorer` must be a pure per-table function, and the caller guarantees
/// bounds[i] >= scorer(set.tables[i]) (up to summation-order rounding,
/// which the 1e-9 margin absorbs). With `set.n == 0` the bounds are not
/// read and may be empty; otherwise a bounds count that differs from the
/// candidate count is an Internal error.
class ExactRerankStage {
 public:
  using TableScorer = std::function<double(size_t)>;

  ExactRerankStage(TableScorer scorer, std::vector<double> bounds)
      : scorer_(std::move(scorer)), bounds_(std::move(bounds)) {}

  Status Run(CandidateSet& set) const;

 private:
  TableScorer scorer_;
  std::vector<double> bounds_;
};

}  // namespace dust::search::cascade

#endif  // DUST_SEARCH_CASCADE_STAGES_H_

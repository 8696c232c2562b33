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

namespace dust::serve {
class Executor;
}  // namespace dust::serve

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
  /// Shared thread pool for the rerank's bound pass (may be null).
  serve::Executor* executor = nullptr;
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

/// Exact rerank, bound-and-verify. Computes `bound` for every surviving
/// candidate (on the set's executor when there is one), then runs the
/// exact `scorer` in descending bound order (ties toward lower ids) and
/// stops once no remaining bound can reach the n-th best exact score. Hits
/// are ranked descending by (score, id), truncated to `set.n`, and equal a
/// full exact sort of every candidate, bit for bit.
///
/// Both callables must be pure per-table functions, and the caller
/// guarantees bound(t) >= scorer(t) for every table (up to summation-order
/// rounding, which the 1e-9 margin absorbs). `bound` may run concurrently
/// on pool threads; `scorer` runs on the calling thread.
class ExactRerankStage {
 public:
  using TableScorer = std::function<double(size_t)>;

  ExactRerankStage(TableScorer scorer, TableScorer bound)
      : scorer_(std::move(scorer)), bound_(std::move(bound)) {}

  Status Run(CandidateSet& set) const;

 private:
  TableScorer scorer_;
  TableScorer bound_;
};

}  // namespace dust::search::cascade

#endif  // DUST_SEARCH_CASCADE_STAGES_H_

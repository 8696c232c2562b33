// Concrete cascade stages: type prefilter, MinHash prescreen, vector
// shortlist, exact rerank. The prefilter and prescreen borrow the
// search::LakeCatalog's signatures and sketches, and the shortlist borrows
// the engine's profiles and index slot, by pointer, so they survive
// IndexLake/LoadState rebuilds without reconstruction.
#ifndef DUST_SEARCH_CASCADE_STAGES_H_
#define DUST_SEARCH_CASCADE_STAGES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/vector_index.h"
#include "search/cascade/candidate_stage.h"
#include "table/table.h"

namespace dust::search::cascade {

/// Column-type signature of a table: a column counts as numeric when at
/// least half of its non-null values parse as numbers.
TableSignature SignatureOf(const table::Table& table);

/// Lowercased non-null cell texts of every column — the value set the
/// prescreen's MinHash sketches are built over.
std::vector<std::string> TableValueSample(const table::Table& table);

/// Layer-1 admission rule: the candidate must cover at least
/// `prefilter_min_type_overlap` of the query's columns with type-compatible
/// columns (text-to-text, numeric-to-numeric) and must not be wider than
/// `prefilter_max_column_ratio` times the query. A column-less query passes
/// everything (nothing to judge); a column-less candidate never matches.
bool PrefilterCompatible(const TableSignature& query,
                         const TableSignature& candidate,
                         const CascadeConfig& config);

/// Layer 1 — metadata/type prefilter. O(candidates) signature compares;
/// this is where >90% of a heterogeneous lake should fall away.
class TypePrefilterStage : public CandidateStage {
 public:
  TypePrefilterStage(const std::vector<TableSignature>* signatures,
                     const CascadeConfig* config)
      : signatures_(signatures), config_(config) {}

  std::string name() const override { return "prefilter"; }
  Status Run(CandidateSet& set) const override;

 private:
  const std::vector<TableSignature>* signatures_;
  const CascadeConfig* config_;
};

/// Layer 2 — MinHash value-overlap prescreen: keeps the `prescreen_keep`
/// candidates with the highest estimated Jaccard overlap against the
/// query's value sketch (ties break toward lower table ids). A candidate
/// set already at or under the cap passes through untouched.
class MinHashPrescreenStage : public CandidateStage {
 public:
  MinHashPrescreenStage(const std::vector<MinHashSketch>* sketches,
                        const CascadeConfig* config)
      : sketches_(sketches), config_(config) {}

  std::string name() const override { return "prescreen"; }
  Status Run(CandidateSet& set) const override;

 private:
  const std::vector<MinHashSketch>* sketches_;
  const CascadeConfig* config_;
};

/// Layer 3 — vector shortlist over table profiles. With an untouched
/// candidate set it delegates to the installed index exactly as the flat
/// path does (bit-identical, including approximate-index behavior); with a
/// pre-pruned set it scores the survivors exactly and applies FinalizeHits
/// semantics. shortlist == 0 or no index = pass-through (exact scoring of
/// every survivor downstream).
class VectorShortlistStage : public CandidateStage {
 public:
  VectorShortlistStage(const std::unique_ptr<index::VectorIndex>* index_slot,
                       const std::vector<la::Vec>* profiles, size_t shortlist)
      : index_slot_(index_slot), profiles_(profiles), shortlist_(shortlist) {}

  std::string name() const override { return "shortlist"; }
  Status Run(CandidateSet& set) const override;

 private:
  const std::unique_ptr<index::VectorIndex>* index_slot_;
  const std::vector<la::Vec>* profiles_;
  size_t shortlist_;
};

/// Layer 4 — exact rerank, bound-and-verify. Computes `bound` for every
/// surviving candidate (on the installed executor when there is one), then
/// runs the exact `scorer` in descending bound order (ties toward lower
/// ids) and stops once no remaining bound can reach the n-th best exact
/// score. Hits are ranked descending by (score, id), truncated to `set.n`,
/// and equal a full exact sort of every candidate, bit for bit.
///
/// Both callables must be pure per-table functions, and the caller
/// guarantees bound(t) >= scorer(t) for every table (up to summation-order
/// rounding, which the stage's 1e-9 margin absorbs). `bound` may run
/// concurrently on pool threads; `scorer` runs on the calling thread.
class ExactRerankStage : public CandidateStage {
 public:
  using TableScorer = std::function<double(size_t)>;

  ExactRerankStage(TableScorer scorer, TableScorer bound)
      : scorer_(std::move(scorer)), bound_(std::move(bound)) {}

  std::string name() const override { return "rerank"; }
  Status Run(CandidateSet& set) const override;

 private:
  TableScorer scorer_;
  TableScorer bound_;
};

}  // namespace dust::search::cascade

#endif  // DUST_SEARCH_CASCADE_STAGES_H_

// GMC — Greedy Marginal Contribution (Vieira et al., DivDB, PVLDB'11).
//
// Greedily builds the result set R: at each step every remaining candidate
// is scored by its maximum marginal contribution (MMC) to the MMR-style
// objective
//   F(R) = (1-λ)·k·Σ_{s∈R} rel(s) + (2λ/(k-1))·Σ_{s,s'∈R} δ(s,s')
// where the MMC of s includes (a) its relevance, (b) its distances to the
// already-selected items, and (c) an optimistic look-ahead: the sum of its
// (k-1-|R|) largest distances to the not-yet-selected candidates. The
// look-ahead makes each iteration Θ(s²), i.e., GMC is Θ(k·s²) overall —
// the quadratic behaviour measured in Fig. 7.
//
// Relevance adaptation for unionable tuples (all candidates are relevant):
// rel(s) = 1 - mean distance to the query tuples, matching how prior work
// adapted MMR to table search [32].
#ifndef DUST_DIVERSIFY_GMC_H_
#define DUST_DIVERSIFY_GMC_H_

#include "diversify/diversifier.h"

namespace dust::diversify {

struct GmcConfig {
  /// Relevance/diversity trade-off λ (DivDB default 0.5).
  double lambda = 0.5;
};

class GmcDiversifier : public Diversifier {
 public:
  explicit GmcDiversifier(GmcConfig config = {}) : config_(config) {}

  std::vector<size_t> SelectDiverse(const DiversifyInput& input,
                                    size_t k) override;
  std::string name() const override { return "GMC"; }

 private:
  GmcConfig config_;
};

}  // namespace dust::diversify

#endif  // DUST_DIVERSIFY_GMC_H_

#include "diversify/gmc.h"

#include <algorithm>
#include <limits>

#include "util/status.h"

namespace dust::diversify {

std::vector<size_t> GmcDiversifier::SelectDiverse(const DiversifyInput& input,
                                                  size_t k) {
  DUST_CHECK(input.lake != nullptr);
  const std::vector<la::Vec>& lake = *input.lake;
  const size_t s = lake.size();
  if (s == 0 || k == 0) return {};
  k = std::min(k, s);

  // Relevance: closeness to the query (uniform when no query is given).
  std::vector<float> relevance(s, 0.0f);
  if (input.query != nullptr && !input.query->empty()) {
    for (size_t i = 0; i < s; ++i) {
      relevance[i] = 1.0f - MeanDistanceToQuery(input, i);
    }
  }

  // The Θ(s²) candidate-candidate distance cache.
  std::vector<float> cache(s * s, 0.0f);
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      float d = la::Distance(input.metric, lake[i], lake[j]);
      cache[i * s + j] = d;
      cache[j * s + i] = d;
    }
  }

  const double lambda = config_.lambda;
  const double div_weight = (k > 1) ? 2.0 * lambda / (k - 1.0) : 0.0;

  std::vector<char> selected(s, 0);
  std::vector<float> sum_to_selected(s, 0.0f);
  std::vector<size_t> result;
  result.reserve(k);
  std::vector<float> scratch;
  scratch.reserve(s);

  for (size_t step = 0; step < k; ++step) {
    const size_t lookahead = (k - 1) - result.size();  // future slots
    double best_mmc = -std::numeric_limits<double>::infinity();
    size_t best = s;
    for (size_t i = 0; i < s; ++i) {
      if (selected[i]) continue;
      // Look-ahead: sum of the `lookahead` largest distances from i to the
      // remaining (not selected, not i) candidates. This full scan per
      // candidate per iteration is what makes GMC Θ(k·s²).
      double future = 0.0;
      if (lookahead > 0) {
        scratch.clear();
        for (size_t j = 0; j < s; ++j) {
          if (j == i || selected[j]) continue;
          scratch.push_back(cache[i * s + j]);
        }
        size_t take = std::min(lookahead, scratch.size());
        if (take > 0) {
          std::nth_element(scratch.begin(),
                           scratch.begin() + static_cast<long>(take - 1),
                           scratch.end(), std::greater<float>());
          for (size_t j = 0; j < take; ++j) future += scratch[j];
        }
      }
      double mmc = (1.0 - lambda) * relevance[i] +
                   div_weight * (static_cast<double>(sum_to_selected[i]) +
                                 0.5 * future);
      if (mmc > best_mmc) {
        best_mmc = mmc;
        best = i;
      }
    }
    DUST_CHECK(best < s);
    selected[best] = 1;
    result.push_back(best);
    for (size_t j = 0; j < s; ++j) {
      if (!selected[j]) sum_to_selected[j] += cache[best * s + j];
    }
  }
  return result;
}

}  // namespace dust::diversify

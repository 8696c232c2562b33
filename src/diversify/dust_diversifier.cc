#include "diversify/dust_diversifier.h"

#include <algorithm>
#include <numeric>

#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "util/status.h"

namespace dust::diversify {

std::vector<size_t> DustDiversifier::PruneTuples(const DiversifyInput& input,
                                                 size_t s) const {
  const std::vector<la::Vec>& lake = *input.lake;
  const size_t n = lake.size();
  if (n <= s) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  // Group tuples by source table (one group when provenance is absent).
  size_t num_tables = 1;
  if (input.table_of != nullptr) {
    DUST_CHECK(input.table_of->size() == n);
    for (size_t t : *input.table_of) num_tables = std::max(num_tables, t + 1);
  }
  const size_t dim = lake[0].size();
  std::vector<la::Vec> mean(num_tables, la::Vec(dim, 0.0f));
  std::vector<std::vector<size_t>> members(num_tables);
  for (size_t i = 0; i < n; ++i) {
    size_t g = (input.table_of != nullptr) ? (*input.table_of)[i] : 0;
    la::AddInPlace(&mean[g], lake[i]);
    members[g].push_back(i);
  }
  for (size_t g = 0; g < num_tables; ++g) {
    if (!members[g].empty()) {
      la::ScaleInPlace(&mean[g], 1.0f / static_cast<float>(members[g].size()));
    }
  }

  // Score(t) = delta(table mean, E(t)); keep the global top-s (§5.1). One
  // gathered batch-kernel scan per table, with a lake norm cache (only
  // read by cosine) shared across groups.
  std::vector<float> lake_norms;
  const float* norms = nullptr;
  if (input.metric == la::Metric::kCosine) {
    lake_norms = la::NormsOf(lake);
    norms = lake_norms.data();
  }
  std::vector<std::pair<float, size_t>> scored(n);
  std::vector<float> group_distances;
  for (size_t g = 0; g < num_tables; ++g) {
    if (members[g].empty()) continue;
    group_distances.resize(members[g].size());
    la::DistanceToMany(input.metric, mean[g], lake, norms,
                       members[g].data(), members[g].size(),
                       group_distances.data());
    for (size_t j = 0; j < members[g].size(); ++j) {
      scored[members[g][j]] = {group_distances[j], members[g][j]};
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  std::vector<size_t> kept;
  kept.reserve(s);
  for (size_t i = 0; i < s; ++i) kept.push_back(scored[i].second);
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<size_t> RankCandidatesAgainstQuery(
    const DiversifyInput& input, const std::vector<size_t>& candidates) {
  struct Ranked {
    float min_distance;
    float mean_distance;
    size_t index;
  };
  const bool has_query = input.query != nullptr && !input.query->empty();
  // Query norms computed once for the whole ranking pass (only read by
  // cosine), so each candidate-vs-query-tuple pair is one fused dot.
  std::vector<float> query_norms;
  if (has_query && input.metric == la::Metric::kCosine) {
    query_norms = la::NormsOf(*input.query);
  }
  std::vector<float> distances;
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (size_t i : candidates) {
    Ranked r;
    r.index = i;
    if (!has_query) {
      // No query: every candidate ties; keep input order deterministically.
      r.min_distance = 0.0f;
      r.mean_distance = 0.0f;
    } else {
      const la::Vec& candidate = (*input.lake)[i];
      if (query_norms.empty()) {
        la::DistanceToMany(input.metric, candidate, *input.query, &distances);
      } else {
        la::DistanceToMany(input.metric, candidate, *input.query, query_norms,
                           &distances);
      }
      float min = distances[0];
      float sum = 0.0f;
      for (float d : distances) {
        if (d < min) min = d;
        sum += d;
      }
      r.min_distance = min;
      r.mean_distance = sum / static_cast<float>(distances.size());
    }
    ranked.push_back(r);
  }
  // Descending min distance; ties broken by descending mean distance
  // (Example 5), then by index for determinism.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.min_distance != b.min_distance) {
                       return a.min_distance > b.min_distance;
                     }
                     if (a.mean_distance != b.mean_distance) {
                       return a.mean_distance > b.mean_distance;
                     }
                     return a.index < b.index;
                   });
  std::vector<size_t> out;
  out.reserve(ranked.size());
  for (const Ranked& r : ranked) out.push_back(r.index);
  return out;
}

std::vector<size_t> DustDiversifier::SelectDiverse(const DiversifyInput& input,
                                                   size_t k) {
  DUST_CHECK(input.lake != nullptr);
  const std::vector<la::Vec>& lake = *input.lake;
  if (lake.empty() || k == 0) return {};
  k = std::min(k, lake.size());

  // §5.1 Pruning.
  std::vector<size_t> kept;
  if (config_.enable_pruning) {
    kept = PruneTuples(input, std::max(config_.prune_s, k));
  } else {
    kept.resize(lake.size());
    std::iota(kept.begin(), kept.end(), 0);
  }

  // §5.2 Clustering into k·p clusters, at most one per kept tuple; medoids
  // become candidates. p > kept / k exactly when k·p > kept, and asks it
  // without a product that could wrap past SIZE_MAX.
  std::vector<size_t> candidates;
  const size_t p = std::max<size_t>(1, config_.p);
  const size_t num_clusters = p > kept.size() / k ? kept.size() : k * p;
  if (kept.size() <= num_clusters) {
    candidates = kept;
  } else {
    std::vector<la::Vec> pruned_points;
    pruned_points.reserve(kept.size());
    for (size_t i : kept) pruned_points.push_back(lake[i]);
    // Clustering consumes the one s x s matrix; medoids come from small
    // per-cluster matrices with bit-identical entries.
    cluster::Dendrogram dendrogram = cluster::AgglomerativeCluster(
        la::DistanceMatrix(pruned_points, input.metric), config_.linkage);
    std::vector<size_t> labels =
        cluster::CutDendrogram(dendrogram, num_clusters);
    for (size_t medoid :
         cluster::ClusterMedoids(pruned_points, labels, input.metric)) {
      candidates.push_back(kept[medoid]);
    }
  }

  // §5.3 Re-rank against the query; return the top k.
  std::vector<size_t> ranked = RankCandidatesAgainstQuery(input, candidates);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace dust::diversify

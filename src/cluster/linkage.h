// Linkage criteria for agglomerative clustering, updated with the
// Lance-Williams recurrence so cluster-cluster distances never require
// revisiting the raw points.
#ifndef DUST_CLUSTER_LINKAGE_H_
#define DUST_CLUSTER_LINKAGE_H_

#include <algorithm>
#include <cstddef>

#include "util/status.h"

namespace dust::cluster {

/// Linkage criterion. The paper's experiments use average linkage
/// (Sec. 6.2.1); the others support the linkage ablation bench.
/// kWard expects squared-Euclidean input distances.
enum class Linkage { kSingle, kComplete, kAverage, kWard };

const char* LinkageName(Linkage linkage);

/// Lance-Williams update for a linkage fixed at compile time: distance
/// between cluster (a ∪ b) and cluster c, given d(a,c), d(b,c), d(a,b) and
/// the cluster sizes. Branch-free per linkage, so a loop over a whole row
/// of c vectorizes.
template <Linkage kLinkage>
inline float LanceWilliamsOf(float d_ac, float d_bc, float d_ab, float na,
                             float nb, float nc) {
  if constexpr (kLinkage == Linkage::kSingle) {
    return std::min(d_ac, d_bc);
  } else if constexpr (kLinkage == Linkage::kComplete) {
    return std::max(d_ac, d_bc);
  } else if constexpr (kLinkage == Linkage::kAverage) {
    return (na * d_ac + nb * d_bc) / (na + nb);
  } else {
    float total = na + nb + nc;
    return ((na + nc) * d_ac + (nb + nc) * d_bc - nc * d_ab) / total;
  }
}

/// Lance-Williams update for a runtime linkage. A value outside the enum
/// aborts: answering 0 would merge every cluster at distance 0.
inline float LanceWilliams(Linkage linkage, float d_ac, float d_bc, float d_ab,
                           size_t size_a, size_t size_b, size_t size_c) {
  const float na = static_cast<float>(size_a);
  const float nb = static_cast<float>(size_b);
  const float nc = static_cast<float>(size_c);
  switch (linkage) {
    case Linkage::kSingle:
      return LanceWilliamsOf<Linkage::kSingle>(d_ac, d_bc, d_ab, na, nb, nc);
    case Linkage::kComplete:
      return LanceWilliamsOf<Linkage::kComplete>(d_ac, d_bc, d_ab, na, nb, nc);
    case Linkage::kAverage:
      return LanceWilliamsOf<Linkage::kAverage>(d_ac, d_bc, d_ab, na, nb, nc);
    case Linkage::kWard:
      return LanceWilliamsOf<Linkage::kWard>(d_ac, d_bc, d_ab, na, nb, nc);
  }
  DUST_CHECK(false && "invalid Linkage enum value");
  return 0.0f;
}

}  // namespace dust::cluster

#endif  // DUST_CLUSTER_LINKAGE_H_

// Dense vector operations. Embeddings throughout the library are
// std::vector<float>; these kernels are the hot path of every distance
// computation, clustering step, and training iteration.
#ifndef DUST_LA_VECTOR_OPS_H_
#define DUST_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace dust::la {

using Vec = std::vector<float>;

/// Dot product. Requires a.size() == b.size().
float Dot(const Vec& a, const Vec& b);

/// Euclidean (L2) norm.
float Norm(const Vec& a);

/// Squared Euclidean norm.
float NormSquared(const Vec& a);

/// a += b. Requires equal sizes.
void AddInPlace(Vec* a, const Vec& b);

/// a -= b. Requires equal sizes.
void SubInPlace(Vec* a, const Vec& b);

/// a *= s.
void ScaleInPlace(Vec* a, float s);

/// a + b (new vector).
Vec Add(const Vec& a, const Vec& b);

/// a - b (new vector).
Vec Sub(const Vec& a, const Vec& b);

/// Normalizes to unit L2 norm; leaves the zero vector untouched.
void NormalizeInPlace(Vec* a);

/// Component-wise mean of a non-empty set of equal-length vectors.
Vec Mean(const std::vector<Vec>& vectors);

}  // namespace dust::la

#endif  // DUST_LA_VECTOR_OPS_H_

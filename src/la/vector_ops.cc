#include "la/vector_ops.h"

#include <cmath>

#include "la/simd/kernels.h"
#include "util/status.h"

namespace dust::la {

float Dot(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  return simd::Active().dot(a.data(), b.data(), a.size());
}

float NormSquared(const Vec& a) {
  return simd::Active().norm_squared(a.data(), a.size());
}

float Norm(const Vec& a) { return std::sqrt(NormSquared(a)); }

void AddInPlace(Vec* a, const Vec& b) {
  DUST_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += b[i];
}

void SubInPlace(Vec* a, const Vec& b) {
  DUST_CHECK(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] -= b[i];
}

void ScaleInPlace(Vec* a, float s) {
  for (float& x : *a) x *= s;
}

Vec Add(const Vec& a, const Vec& b) {
  Vec out = a;
  AddInPlace(&out, b);
  return out;
}

Vec Sub(const Vec& a, const Vec& b) {
  Vec out = a;
  SubInPlace(&out, b);
  return out;
}

void NormalizeInPlace(Vec* a) {
  float n = Norm(*a);
  if (n > 0.0f) ScaleInPlace(a, 1.0f / n);
}

Vec Mean(const std::vector<Vec>& vectors) {
  DUST_CHECK(!vectors.empty());
  Vec out(vectors[0].size(), 0.0f);
  for (const Vec& v : vectors) AddInPlace(&out, v);
  ScaleInPlace(&out, 1.0f / static_cast<float>(vectors.size()));
  return out;
}

}  // namespace dust::la

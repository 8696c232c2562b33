// Scalar fallback backend. This translation unit is compiled with the
// project's baseline flags only — no -mavx2 — so the fallback never emits
// instructions a pre-AVX2 machine cannot execute. Two-way partial sums give
// the compiler ILP without reassociating the reduction (float addition is
// not associative, so -O3 alone will not vectorize these loops; that keeps
// "scalar" honest as the benchmark baseline).
#include <cmath>
#include <cstddef>
#include <limits>

#include "la/simd/kernels.h"

namespace dust::la::simd {
namespace {

float DotScalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f;
  float s1 = 0.0f;
  size_t i = 0;
  for (; i + 1 < n; i += 2) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
  }
  if (i < n) s0 += a[i] * b[i];
  return s0 + s1;
}

float NormSquaredScalar(const float* a, size_t n) { return DotScalar(a, a, n); }

float SquaredL2Scalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f;
  float s1 = 0.0f;
  size_t i = 0;
  for (; i + 1 < n; i += 2) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  if (i < n) {
    float d = a[i] - b[i];
    s0 += d * d;
  }
  return s0 + s1;
}

float L1Scalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f;
  float s1 = 0.0f;
  size_t i = 0;
  for (; i + 1 < n; i += 2) {
    s0 += std::fabs(a[i] - b[i]);
    s1 += std::fabs(a[i + 1] - b[i + 1]);
  }
  if (i < n) s0 += std::fabs(a[i] - b[i]);
  return s0 + s1;
}

void CosineTermsScalar(const float* a, const float* b, size_t n, float* dot,
                       float* a_squared, float* b_squared) {
  float ab = 0.0f;
  float aa = 0.0f;
  float bb = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    ab += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  *dot = ab;
  *a_squared = aa;
  *b_squared = bb;
}

void DotBatchScalar(const float* q, const float* base, size_t stride,
                    size_t count, size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotScalar(q, base + r * stride, n);
  }
}

/// One plain sequential sum per pair, as CosineTermsScalar sums its dot.
void CosineDotBlockScalar(const float* q, size_t q_count, const float* rows,
                          size_t row_count, size_t n, float* out) {
  for (size_t i = 0; i < q_count; ++i) {
    const float* a = q + i * n;
    for (size_t r = 0; r < row_count; ++r) {
      const float* b = rows + r * n;
      float ab = 0.0f;
      for (size_t k = 0; k < n; ++k) ab += a[k] * b[k];
      out[i * row_count + r] = ab;
    }
  }
}

size_t ArgminScalar(const float* a, size_t n) {
  float best = std::numeric_limits<float>::infinity();
  size_t arg = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < best) {
      best = a[i];
      arg = i;
    }
  }
  return arg;
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels kernels = [] {
    Kernels k;
    k.dot = DotScalar;
    k.norm_squared = NormSquaredScalar;
    k.squared_l2 = SquaredL2Scalar;
    k.l1 = L1Scalar;
    k.cosine_terms = CosineTermsScalar;
    k.dot_batch = DotBatchScalar;
    k.cosine_dot_block = CosineDotBlockScalar;
    k.argmin = ArgminScalar;
    k.name = "scalar";
    return k;
  }();
  return kernels;
}

}  // namespace dust::la::simd

// AVX2+FMA backend. CMake compiles only this translation unit with
// -mavx2 -mfma (when the compiler accepts them), so nothing here may be
// called before Avx2Available() confirms CPU support — the dispatcher in
// dispatch.cc enforces that. On targets without AVX2 support __AVX2__ is
// undefined and this file degrades to a stub that reports the backend as
// unavailable.
#include "la/simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <limits>

namespace dust::la::simd {
namespace {

/// Sum of all 8 lanes.
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float NormSquaredAvx2(const float* a, size_t n) { return DotAvx2(a, a, n); }

float SquaredL2Avx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
    i += 8;
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

float L1Avx2(const float* a, const float* b, size_t n) {
  // Clearing the sign bit is fabs for IEEE floats.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d0, abs_mask));
    acc1 = _mm256_add_ps(acc1, _mm256_and_ps(d1, abs_mask));
  }
  if (i + 8 <= n) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d, abs_mask));
    i += 8;
  }
  float sum = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

void CosineTermsAvx2(const float* a, const float* b, size_t n, float* dot,
                     float* a_squared, float* b_squared) {
  __m256 acc_ab = _mm256_setzero_ps();
  __m256 acc_aa = _mm256_setzero_ps();
  __m256 acc_bb = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    acc_ab = _mm256_fmadd_ps(va, vb, acc_ab);
    acc_aa = _mm256_fmadd_ps(va, va, acc_aa);
    acc_bb = _mm256_fmadd_ps(vb, vb, acc_bb);
  }
  float ab = HorizontalSum(acc_ab);
  float aa = HorizontalSum(acc_aa);
  float bb = HorizontalSum(acc_bb);
  for (; i < n; ++i) {
    ab += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  *dot = ab;
  *a_squared = aa;
  *b_squared = bb;
}

/// Four rows per pass share each load of q. Every row keeps DotAvx2's two
/// accumulators, lane order, horizontal sum and scalar tail, so out[r]
/// equals DotAvx2(q, row r, n) bit for bit.
void DotBatchAvx2(const float* q, const float* base, size_t stride,
                  size_t count, size_t n, float* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* b0 = base + r * stride;
    const float* b1 = b0 + stride;
    const float* b2 = b1 + stride;
    const float* b3 = b2 + stride;
    __m256 acc00 = _mm256_setzero_ps();
    __m256 acc01 = _mm256_setzero_ps();
    __m256 acc10 = _mm256_setzero_ps();
    __m256 acc11 = _mm256_setzero_ps();
    __m256 acc20 = _mm256_setzero_ps();
    __m256 acc21 = _mm256_setzero_ps();
    __m256 acc30 = _mm256_setzero_ps();
    __m256 acc31 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      const __m256 q1 = _mm256_loadu_ps(q + i + 8);
      acc00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b0 + i), acc00);
      acc01 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b0 + i + 8), acc01);
      acc10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b1 + i), acc10);
      acc11 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b1 + i + 8), acc11);
      acc20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b2 + i), acc20);
      acc21 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b2 + i + 8), acc21);
      acc30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b3 + i), acc30);
      acc31 = _mm256_fmadd_ps(q1, _mm256_loadu_ps(b3 + i + 8), acc31);
    }
    if (i + 8 <= n) {
      const __m256 q0 = _mm256_loadu_ps(q + i);
      acc00 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b0 + i), acc00);
      acc10 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b1 + i), acc10);
      acc20 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b2 + i), acc20);
      acc30 = _mm256_fmadd_ps(q0, _mm256_loadu_ps(b3 + i), acc30);
      i += 8;
    }
    float s0 = HorizontalSum(_mm256_add_ps(acc00, acc01));
    float s1 = HorizontalSum(_mm256_add_ps(acc10, acc11));
    float s2 = HorizontalSum(_mm256_add_ps(acc20, acc21));
    float s3 = HorizontalSum(_mm256_add_ps(acc30, acc31));
    // Same expression as DotAvx2's tail, so the compiler contracts it into
    // the same fused multiply-add.
    for (; i < n; ++i) {
      s0 += q[i] * b0[i];
      s1 += q[i] * b1[i];
      s2 += q[i] * b2[i];
      s3 += q[i] * b3[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = DotAvx2(q, base + r * stride, n);
}

/// Two passes over the span: the minimum value, then the first index that
/// holds it. min_ps returns its second operand when either is NaN, so a
/// NaN never displaces the running minimum.
size_t ArgminAvx2(const float* a, size_t n) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  __m256 running = _mm256_set1_ps(kInf);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    running = _mm256_min_ps(_mm256_loadu_ps(a + i), running);
  }
  __m128 lo = _mm_min_ps(_mm256_castps256_ps128(running),
                         _mm256_extractf128_ps(running, 1));
  lo = _mm_min_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_min_ss(lo, _mm_movehdup_ps(lo));
  float best = _mm_cvtss_f32(lo);
  for (; i < n; ++i) {
    if (a[i] < best) best = a[i];
  }
  if (!(best < kInf)) return 0;
  const __m256 target = _mm256_set1_ps(best);
  for (i = 0; i + 8 <= n; i += 8) {
    const int hits = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(a + i), target, _CMP_EQ_OQ));
    if (hits != 0) return i + static_cast<size_t>(__builtin_ctz(hits));
  }
  for (; i < n; ++i) {
    if (a[i] == best) break;
  }
  return i;
}

}  // namespace

bool Avx2Available() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const Kernels& Avx2Kernels() {
  static const Kernels kernels = [] {
    Kernels k;
    k.dot = DotAvx2;
    k.norm_squared = NormSquaredAvx2;
    k.squared_l2 = SquaredL2Avx2;
    k.l1 = L1Avx2;
    k.cosine_terms = CosineTermsAvx2;
    k.dot_batch = DotBatchAvx2;
    k.argmin = ArgminAvx2;
    k.name = "avx2";
    return k;
  }();
  return kernels;
}

}  // namespace dust::la::simd

#else  // !(__AVX2__ && __FMA__)

namespace dust::la::simd {

bool Avx2Available() { return false; }

const Kernels& Avx2Kernels() { return ScalarKernels(); }

}  // namespace dust::la::simd

#endif

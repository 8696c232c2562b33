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

/// HorizontalSum of eight accumulators at once: lane e of the result is
/// v[e]'s sum. Each sum adds the same lanes in the same order as
/// HorizontalSum, ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), so it
/// equals HorizontalSum(v[e]) bit for bit.
inline __m256 HorizontalSum8(const __m256* v) {
  // Lanes i + (i + 4), for v[e] in the low half and v[e + 4] in the high.
  __m256 half[4];
  for (int e = 0; e < 4; ++e) {
    half[e] = _mm256_add_ps(_mm256_permute2f128_ps(v[e], v[e + 4], 0x20),
                            _mm256_permute2f128_ps(v[e], v[e + 4], 0x31));
  }
  // Then s0 + s2 and s1 + s3, two accumulators per vector.
  __m256 quarter[2];
  for (int e = 0; e < 2; ++e) {
    const __m256 a = half[2 * e];
    const __m256 b = half[2 * e + 1];
    quarter[e] = _mm256_add_ps(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 2, 3, 2)));
  }
  // Then (s0 + s2) + (s1 + s3).
  return _mm256_hadd_ps(quarter[0], quarter[1]);
}

/// The dots of kQ query rows against kR rows (`n` floats each, back to
/// back), written to out[a * out_stride + b]. A single accumulator per pair
/// is bound by FMA latency, so the tile keeps kQ * kR of them in flight;
/// each still sums as CosineTermsAvx2 sums its dot: one 8-lane FMA
/// accumulator, HorizontalSum, then the scalar tail.
template <size_t kQ, size_t kR>
__attribute__((always_inline)) inline void CosineDotTile(
    const float* q, const float* rows, size_t n, size_t out_stride,
    float* out) {
  constexpr size_t kPairs = kQ * kR;
  __m256 acc[kPairs];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256 row[kR];
    for (size_t b = 0; b < kR; ++b) row[b] = _mm256_loadu_ps(rows + b * n + k);
    for (size_t a = 0; a < kQ; ++a) {
      const __m256 qa = _mm256_loadu_ps(q + a * n + k);
      for (size_t b = 0; b < kR; ++b) {
        acc[a * kR + b] = _mm256_fmadd_ps(qa, row[b], acc[a * kR + b]);
      }
    }
  }
  // Every accumulator is read once, by a loop the compiler unrolls, so the
  // accumulators stay in registers.
  alignas(32) float sums[kPairs];
  if constexpr (kPairs == 8) {
    _mm256_store_ps(sums, HorizontalSum8(acc));
  } else {
    for (size_t e = 0; e < kPairs; ++e) sums[e] = HorizontalSum(acc[e]);
  }
  if (k < n) {
    for (size_t a = 0; a < kQ; ++a) {
      for (size_t b = 0; b < kR; ++b) {
        const float* qa = q + a * n;
        const float* rb = rows + b * n;
        float ab = sums[a * kR + b];
        // Same expression as CosineTermsAvx2's tail, so the compiler
        // contracts it (or not) the same way.
        for (size_t i = k; i < n; ++i) ab += qa[i] * rb[i];
        sums[a * kR + b] = ab;
      }
    }
  }
  for (size_t a = 0; a < kQ; ++a) {
    for (size_t b = 0; b < kR; ++b) out[a * out_stride + b] = sums[a * kR + b];
  }
}

/// The tiles of every query row against kR rows.
template <size_t kR>
void CosineDotTiles(const float* q, size_t q_count, const float* rows,
                    size_t n, size_t out_stride, float* out) {
  size_t i = 0;
  for (; i + 4 <= q_count; i += 4) {
    CosineDotTile<4, kR>(q + i * n, rows, n, out_stride, out + i * out_stride);
  }
  for (; i < q_count; ++i) {
    CosineDotTile<1, kR>(q + i * n, rows, n, out_stride, out + i * out_stride);
  }
}

/// Two rows at a time against every query row, so each pair of rows is read
/// from memory once per block.
void CosineDotBlockAvx2(const float* q, size_t q_count, const float* rows,
                        size_t row_count, size_t n, float* out) {
  size_t r = 0;
  for (; r + 2 <= row_count; r += 2) {
    CosineDotTiles<2>(q, q_count, rows + r * n, n, row_count, out + r);
  }
  if (r < row_count) {
    CosineDotTiles<1>(q, q_count, rows + r * n, n, row_count, out + r);
  }
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
    k.cosine_dot_block = CosineDotBlockAvx2;
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

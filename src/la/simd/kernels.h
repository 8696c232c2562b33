// Runtime-dispatched SIMD backends for the distance kernels.
//
// Every distance computation in the library — every VectorIndex type,
// the diversifier's pairwise scans, PCA, and the NN trainer — reduces to
// the handful of dense float reductions declared here. The backend is
// selected once at first use: AVX2+FMA when the binary carries it and the
// CPU reports support (CPUID via __builtin_cpu_supports), scalar otherwise.
// Setting DUST_FORCE_SCALAR=1 in the environment pins the scalar backend,
// which is how CI keeps the fallback path green on AVX2 hardware.
//
// The kernels operate on raw float spans; la::Dot / la::Distance /
// la::DistanceToMany are the Vec-level entry points consumers should use.
#ifndef DUST_LA_SIMD_KERNELS_H_
#define DUST_LA_SIMD_KERNELS_H_

#include <cstddef>

namespace dust::la::simd {

/// One backend's kernel table. All functions accept n == 0 (returning 0)
/// and unaligned pointers; callers guarantee both spans hold n floats.
struct Kernels {
  float (*dot)(const float* a, const float* b, size_t n);
  float (*norm_squared)(const float* a, size_t n);
  float (*squared_l2)(const float* a, const float* b, size_t n);
  float (*l1)(const float* a, const float* b, size_t n);
  /// Fused single pass producing dot(a, b), |a|^2, and |b|^2 — the three
  /// reductions cosine distance needs.
  void (*cosine_terms)(const float* a, const float* b, size_t n, float* dot,
                       float* a_squared, float* b_squared);
  /// Batched dot: out[r] = dot(q, base + r * stride, n) for r in
  /// [0, count). Each output is bit-identical to `dot` on the same pair, so
  /// streaming the rows of a contiguous buffer through one call changes no
  /// result.
  void (*dot_batch)(const float* q, const float* base, size_t stride,
                    size_t count, size_t n, float* out);
  /// Many-to-many dot in cosine_terms' order: out[i * row_count + r] is the
  /// `dot` output of cosine_terms(q + i * n, rows + r * n, n), bit for bit,
  /// for the q_count query rows and row_count rows stored back to back.
  void (*cosine_dot_block)(const float* q, size_t q_count, const float* rows,
                           size_t row_count, size_t n, float* out);
  /// Index of the first minimum of a[0, n), n >= 1. NaN entries never win,
  /// and a span with no entry below +inf returns 0.
  size_t (*argmin)(const float* a, size_t n);
  /// Backend name for logs/benchmarks: "scalar" or "avx2".
  const char* name;
};

/// Portable baseline backend (no ISA extensions beyond the compile target).
const Kernels& ScalarKernels();

/// True when the AVX2 backend was compiled in and this CPU supports
/// AVX2+FMA.
bool Avx2Available();

/// The AVX2 backend; falls back to ScalarKernels() in binaries built
/// without AVX2 support. Call Avx2Available() before relying on it.
const Kernels& Avx2Kernels();

/// The backend every la:: kernel routes through. Selected on first call:
/// scalar when DUST_FORCE_SCALAR is set to anything but "" or "0" in the
/// environment, otherwise the best backend the CPU supports.
const Kernels& Active();

/// Name of the backend Active() resolves to.
const char* ActiveName();

/// Overrides the active backend at runtime: force=true pins scalar,
/// force=false re-runs the startup selection. For tests and benchmarks
/// that compare backends inside one process; not thread-safe against
/// concurrent kernel calls.
void ForceScalar(bool force);

}  // namespace dust::la::simd

#endif  // DUST_LA_SIMD_KERNELS_H_

// Tuple distance functions delta(.) of Sec. 3.1 and pairwise distance
// matrices. Cosine distance is the default throughout the experiments
// (Sec. 6.4.1); Euclidean and Manhattan are provided because the paper
// reports equivalent relative results with them.
//
// All kernels route through the runtime-dispatched SIMD backend in
// la/simd/ (AVX2 when the CPU has it, scalar otherwise; DUST_FORCE_SCALAR
// pins the fallback). The one-to-many DistanceToMany overloads are the hot
// path of every index scan: they hoist the query norm and metric switch
// out of the candidate loop, and with a caller-provided norm cache cosine
// distance costs a single fused dot product per candidate.
#ifndef DUST_LA_DISTANCE_H_
#define DUST_LA_DISTANCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/vector_ops.h"
#include "util/status.h"

namespace dust::la {

enum class Metric { kCosine, kEuclidean, kManhattan };

/// Parses "cosine" / "euclidean" ("l2") / "manhattan" ("l1"),
/// case-insensitively. Any other spelling is InvalidArgument — a typo'd
/// metric must fail loudly, not silently fall back to cosine and serve
/// wrong distances.
Result<Metric> MetricFromName(const std::string& name);
const char* MetricName(Metric metric);

/// Cosine distance = 1 - cos(a, b); zero vectors are at distance 1 from
/// everything except another zero vector (distance 0 to itself would violate
/// delta(t,t)=0, so two zero vectors get distance 0).
float CosineDistance(const Vec& a, const Vec& b);

/// Cosine similarity in [-1, 1]; 0 when either vector is zero.
float CosineSimilarity(const Vec& a, const Vec& b);

/// Cosine distance reconstructed from a precomputed dot product and the two
/// L2 norms, with exactly CosineDistance's zero-vector conventions and
/// [-1, 1] clamping. This is the fused form the norm-caching index scans
/// use: with norms cached, each candidate costs one dot product.
float CosineDistanceFromDot(float dot, float norm_a, float norm_b);

/// The norm CosineSimilarity computes for a `dim`-float vector: the square
/// root of cosine_terms' one-accumulator |v|^2. That term depends on `v`
/// alone, so a cached CosineNorm equals the one CosineSimilarity recomputes
/// on every call. Norm(v) sums |v|^2 in another order and may differ in the
/// last bit.
float CosineNorm(const float* v, size_t dim);

/// max(0, CosineSimilarity(q_i, row_r)) for a block of pairs, bit for bit:
/// out[i * row_count + r] for the q_count query vectors at `q` and the
/// row_count vectors at `rows`, each set stored back to back with `dim`
/// floats per vector. `q_norms` and `row_norms` hold each vector's
/// CosineNorm. Two zero vectors weigh 1 and one zero vector weighs 0, as
/// CosineSimilarity has it, and a NaN similarity weighs 0, as
/// std::max(0.0, NaN) does. These are the weights of a bipartite table
/// score.
void CosineWeights(const float* q, const float* q_norms, size_t q_count,
                   const float* rows, const float* row_norms,
                   size_t row_count, size_t dim, float* out);

float EuclideanDistance(const Vec& a, const Vec& b);
float SquaredEuclideanDistance(const Vec& a, const Vec& b);
float ManhattanDistance(const Vec& a, const Vec& b);

/// Distance under `metric`.
float Distance(Metric metric, const Vec& a, const Vec& b);

/// Norm(base[i]) for every vector — the cache the norm-aware DistanceToMany
/// overloads consume. Indexes keep one of these aligned with their vector
/// storage.
std::vector<float> NormsOf(const std::vector<Vec>& base);

/// One-to-many: out[i] = Distance(metric, query, base[i]), out resized to
/// base.size(). Computes per-candidate norms on the fly for cosine (still
/// one fused pass per candidate).
void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, std::vector<float>* out);

/// Norm-cached variant: base_norms must be NormsOf(base) (only read for
/// cosine, where it saves the per-candidate norm pass).
void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base,
                    const std::vector<float>& base_norms,
                    std::vector<float>* out);

/// Gathered variants for scans over id lists (HNSW adjacency, a diversity
/// score's pairs): out[i] = Distance(metric, query, base[ids[i]]). `out`
/// must hold `count` floats; `base_norms` may be null (norms then computed
/// on the fly for cosine) or NormsOf(base).
void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const uint32_t* ids, size_t count, float* out);
void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const size_t* ids, size_t count, float* out);

/// Contiguous variant: out[r] = Distance(metric, query, row r) for the
/// `count` rows of `dim` floats stored row-major at `rows`. `query_norm`
/// must be Norm(query) and `row_norms` the rows' norms (both read only for
/// cosine, which runs as one dot_batch). Every entry equals the
/// norm-cached DistanceToMany's bit for bit.
void DistanceToRows(Metric metric, const float* query, float query_norm,
                    const float* rows, const float* row_norms, size_t count,
                    size_t dim, float* out);

/// Row-major symmetric pairwise distance matrix (n x n, zero diagonal).
class DistanceMatrix {
 public:
  /// Upper-triangle pairs per claim of the build: 0.17-0.24 ms of cosine
  /// pairs at dim 64 (5-7 ns each), 11-15 round trips of an empty pooled
  /// ParallelFor (16 us at the median on 4 vCPUs). A matrix over at most
  /// 256 points has no more pairs than this and is built on the calling
  /// thread.
  static constexpr size_t kGrainPairs = 32768;

  DistanceMatrix() : n_(0) {}

  /// Precomputes all pairwise distances between `points` under `metric`.
  /// Off the diagonal, row i equals DistanceToMany(metric, points[i],
  /// points, NormsOf(points), &row) bit for bit, and the diagonal is 0.
  /// The build runs on serve::Executor::Current(): upper-triangle rows in
  /// claims balanced by area, then the mirror into the lower triangle by
  /// tile rows. Every entry is written by exactly one claim and is a pure
  /// function of its two points, so the matrix is the same on every
  /// executor.
  DistanceMatrix(const std::vector<Vec>& points, Metric metric);

  DistanceMatrix(const DistanceMatrix& other);
  DistanceMatrix& operator=(const DistanceMatrix& other);
  DistanceMatrix(DistanceMatrix&&) noexcept = default;
  DistanceMatrix& operator=(DistanceMatrix&&) noexcept = default;

  size_t size() const { return n_; }

  float at(size_t i, size_t j) const { return data_[i * n_ + j]; }
  void set(size_t i, size_t j, float d) {
    data_[i * n_ + j] = d;
    data_[j * n_ + i] = d;
  }

  /// The n*n row-major entries, for consumers that rework the matrix in
  /// place (the NN-chain compacts it as clusters merge).
  float* data() { return data_.get(); }

 private:
  size_t n_;
  /// Allocated without a fill: the build writes every entry.
  std::unique_ptr<float[]> data_;
};

}  // namespace dust::la

#endif  // DUST_LA_DISTANCE_H_

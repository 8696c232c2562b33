#include "la/distance.h"

#include <algorithm>
#include <cmath>

#include "la/simd/kernels.h"
#include "util/status.h"
#include "util/string_util.h"

namespace dust::la {

Result<Metric> MetricFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "cosine") return Metric::kCosine;
  if (lower == "euclidean" || lower == "l2") return Metric::kEuclidean;
  if (lower == "manhattan" || lower == "l1") return Metric::kManhattan;
  return Status::InvalidArgument(
      "unknown metric \"" + name +
      "\" (expected cosine, euclidean/l2, or manhattan/l1)");
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kCosine:
      return "cosine";
    case Metric::kEuclidean:
      return "euclidean";
    case Metric::kManhattan:
      return "manhattan";
  }
  // A value outside the enum means a corrupted tag (bad snapshot bytes, a
  // memcpy'd struct); naming it "?" would let it keep flowing. Abort.
  DUST_CHECK(false && "invalid Metric enum value");
  return "";
}

float CosineDistanceFromDot(float dot, float norm_a, float norm_b) {
  if (norm_a == 0.0f && norm_b == 0.0f) return 0.0f;  // identical zero vectors
  if (norm_a == 0.0f || norm_b == 0.0f) return 1.0f;
  float sim = dot / (norm_a * norm_b);
  // Clamp accumulated floating-point error into [-1, 1].
  if (sim > 1.0f) sim = 1.0f;
  if (sim < -1.0f) sim = -1.0f;
  return 1.0f - sim;
}

float CosineSimilarity(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
  simd::Active().cosine_terms(a.data(), b.data(), a.size(), &dot, &a2, &b2);
  float na = std::sqrt(a2);
  float nb = std::sqrt(b2);
  if (na == 0.0f && nb == 0.0f) return 1.0f;  // identical zero vectors
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  float sim = dot / (na * nb);
  if (sim > 1.0f) sim = 1.0f;
  if (sim < -1.0f) sim = -1.0f;
  return sim;
}

float CosineDistance(const Vec& a, const Vec& b) {
  return 1.0f - CosineSimilarity(a, b);
}

float CosineNorm(const float* v, size_t dim) {
  float dot = 0.0f, v2 = 0.0f, same = 0.0f;
  simd::Active().cosine_terms(v, v, dim, &dot, &v2, &same);
  return std::sqrt(v2);
}

void CosineWeights(const float* q, const float* q_norms, size_t q_count,
                   const float* rows, const float* row_norms,
                   size_t row_count, size_t dim, float* out) {
  simd::Active().cosine_dot_block(q, q_count, rows, row_count, dim, out);
  for (size_t i = 0; i < q_count; ++i) {
    const float na = q_norms[i];
    float* w = out + i * row_count;
    // Branch-free, so the loop vectorizes.
    for (size_t r = 0; r < row_count; ++r) {
      const float nb = row_norms[r];
      // CosineSimilarity's clamp to [-1, 1], then the floor at 0; a NaN
      // fails `sim > 0` and weighs 0.
      const float sim = w[r] / (na * nb);
      const float weight = sim > 0.0f ? std::min(sim, 1.0f) : 0.0f;
      // CosineSimilarity's zero vectors: two weigh 1, one weighs 0.
      const float zero_weight = na == nb ? 1.0f : 0.0f;
      w[r] = na == 0.0f || nb == 0.0f ? zero_weight : weight;
    }
  }
}

float SquaredEuclideanDistance(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  return simd::Active().squared_l2(a.data(), b.data(), a.size());
}

float EuclideanDistance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

float ManhattanDistance(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  return simd::Active().l1(a.data(), b.data(), a.size());
}

float Distance(Metric metric, const Vec& a, const Vec& b) {
  switch (metric) {
    case Metric::kCosine:
      return CosineDistance(a, b);
    case Metric::kEuclidean:
      return EuclideanDistance(a, b);
    case Metric::kManhattan:
      return ManhattanDistance(a, b);
  }
  // Returning 0.0f here would report every pair as identical under a
  // corrupted metric tag — the worst possible silent failure for a
  // distance function. Abort instead.
  DUST_CHECK(false && "invalid Metric enum value");
  return 0.0f;
}

std::vector<float> NormsOf(const std::vector<Vec>& base) {
  const simd::Kernels& ops = simd::Active();
  std::vector<float> norms(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    norms[i] = std::sqrt(ops.norm_squared(base[i].data(), base[i].size()));
  }
  return norms;
}

namespace {

/// Shared one-to-many loop: the metric switch, backend lookup, and query
/// norm are hoisted out; `id_of(i)` maps output slot i to an index into
/// `base`. With `base_norms` cosine is one fused dot per candidate;
/// without, one fused pass computing dot and candidate norm together.
template <typename IdOf>
void DistanceToManyImpl(Metric metric, const Vec& query,
                        const std::vector<Vec>& base, const float* base_norms,
                        size_t count, float* out, IdOf id_of) {
  const simd::Kernels& ops = simd::Active();
  const float* q = query.data();
  const size_t dim = query.size();
  switch (metric) {
    case Metric::kCosine: {
      const float query_norm = std::sqrt(ops.norm_squared(q, dim));
      for (size_t i = 0; i < count; ++i) {
        const size_t id = id_of(i);
        const Vec& v = base[id];
        DUST_CHECK(v.size() == dim);
        if (base_norms != nullptr) {
          out[i] = CosineDistanceFromDot(ops.dot(q, v.data(), dim),
                                         query_norm, base_norms[id]);
        } else {
          // cosine_terms redundantly re-reduces |q|^2 here, but the single
          // fused pass still beats two separate passes (dot + |v|^2): one
          // extra FMA stream costs less than re-streaming v from memory.
          float dot = 0.0f, q2 = 0.0f, v2 = 0.0f;
          ops.cosine_terms(q, v.data(), dim, &dot, &q2, &v2);
          out[i] = CosineDistanceFromDot(dot, query_norm, std::sqrt(v2));
        }
      }
      return;
    }
    case Metric::kEuclidean:
      for (size_t i = 0; i < count; ++i) {
        const Vec& v = base[id_of(i)];
        DUST_CHECK(v.size() == dim);
        out[i] = std::sqrt(ops.squared_l2(q, v.data(), dim));
      }
      return;
    case Metric::kManhattan:
      for (size_t i = 0; i < count; ++i) {
        const Vec& v = base[id_of(i)];
        DUST_CHECK(v.size() == dim);
        out[i] = ops.l1(q, v.data(), dim);
      }
      return;
  }
  DUST_CHECK(false && "invalid Metric enum value");
}

}  // namespace

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, std::vector<float>* out) {
  out->resize(base.size());
  DistanceToManyImpl(metric, query, base, nullptr, base.size(), out->data(),
                     [](size_t i) { return i; });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base,
                    const std::vector<float>& base_norms,
                    std::vector<float>* out) {
  DUST_CHECK(base_norms.size() == base.size());
  out->resize(base.size());
  DistanceToManyImpl(metric, query, base, base_norms.data(), base.size(),
                     out->data(), [](size_t i) { return i; });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const uint32_t* ids, size_t count, float* out) {
  DistanceToManyImpl(metric, query, base, base_norms, count, out,
                     [ids](size_t i) { return static_cast<size_t>(ids[i]); });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const size_t* ids, size_t count, float* out) {
  DistanceToManyImpl(metric, query, base, base_norms, count, out,
                     [ids](size_t i) { return ids[i]; });
}

void DistanceToRows(Metric metric, const float* query, float query_norm,
                    const float* rows, const float* row_norms, size_t count,
                    size_t dim, float* out) {
  const simd::Kernels& ops = simd::Active();
  switch (metric) {
    case Metric::kCosine:
      ops.dot_batch(query, rows, dim, count, dim, out);
      for (size_t r = 0; r < count; ++r) {
        out[r] = CosineDistanceFromDot(out[r], query_norm, row_norms[r]);
      }
      return;
    case Metric::kEuclidean:
      for (size_t r = 0; r < count; ++r) {
        out[r] = std::sqrt(ops.squared_l2(query, rows + r * dim, dim));
      }
      return;
    case Metric::kManhattan:
      for (size_t r = 0; r < count; ++r) {
        out[r] = ops.l1(query, rows + r * dim, dim);
      }
      return;
  }
  DUST_CHECK(false && "invalid Metric enum value");
}

DistanceMatrix::DistanceMatrix(const std::vector<Vec>& points, Metric metric)
    : n_(points.size()), data_(points.size() * points.size(), 0.0f) {
  if (n_ == 0) return;
  // The strict upper triangle, written row by row. One contiguous copy of
  // the points makes row i a single contiguous scan over the points after
  // i (a batched dot for cosine).
  const size_t dim = points[0].size();
  std::vector<float> flat(n_ * dim);
  for (size_t i = 0; i < n_; ++i) {
    DUST_CHECK(points[i].size() == dim);
    std::copy(points[i].begin(), points[i].end(), flat.begin() + i * dim);
  }
  const std::vector<float> norms = NormsOf(points);
  for (size_t i = 0; i + 1 < n_; ++i) {
    const float* q = flat.data() + i * dim;
    DistanceToRows(metric, q, norms[i], q + dim, norms.data() + i + 1,
                   n_ - i - 1, dim, data_.data() + i * n_ + i + 1);
  }
  // Every kernel is symmetric in its two operands, so the lower triangle is
  // the transposed upper one; copy it tile by tile to keep both sides of
  // each tile in cache.
  constexpr size_t kTile = 64;
  for (size_t ib = 0; ib < n_; ib += kTile) {
    const size_t i_end = std::min(ib + kTile, n_);
    for (size_t jb = 0; jb <= ib; jb += kTile) {
      for (size_t i = ib; i < i_end; ++i) {
        float* row = data_.data() + i * n_;
        const size_t j_end = std::min(jb + kTile, i);
        for (size_t j = jb; j < j_end; ++j) row[j] = data_[j * n_ + i];
      }
    }
  }
}

}  // namespace dust::la

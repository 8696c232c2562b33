#include "la/distance.h"

#include <algorithm>
#include <cmath>

#include "la/simd/kernels.h"
#include "serve/executor.h"
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

namespace {

/// Side of the square tiles the lower triangle is mirrored in: both sides
/// of a 64 x 64 tile stay in cache.
constexpr size_t kMirrorTile = 64;

/// Tiles per claim of the mirror: 24 tiles take about 0.25 ms at s = 2,500,
/// where a tile's column reads stride 10 KB and cost 10 us a tile, 15
/// round trips of an empty pooled ParallelFor (16 us at the median on 4
/// vCPUs). Smaller matrices have cheaper tiles and fewer of them.
constexpr size_t kGrainTiles = 24;

/// Runs row(r) once for every r in [0, rows) on `pool`, for a triangle
/// whose rows u and rows - 1 - u, a long row and a short one, together cost
/// `cost_of_pair` units. Index u runs both, so every index costs the same
/// and a claim of at least `grain_units` units is a range of indices.
template <typename Row>
void ForTriangleRows(serve::Executor& pool, size_t rows, size_t cost_of_pair,
                     size_t grain_units, const Row& row) {
  const size_t cost = std::max<size_t>(cost_of_pair, 1);
  const size_t grain = (grain_units + cost - 1) / cost;
  pool.ParallelFor((rows + 1) / 2, grain, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      row(u);
      if (rows - 1 - u != u) row(rows - 1 - u);
    }
  });
}

}  // namespace

DistanceMatrix::DistanceMatrix(const std::vector<Vec>& points, Metric metric)
    : n_(points.size()) {
  if (n_ == 0) return;
  data_.reset(new float[n_ * n_]);
  serve::Executor& pool = serve::Executor::Current();
  // One contiguous copy of the points makes row i of the strict upper
  // triangle a single contiguous scan over the points after i (a batched
  // dot for cosine).
  const size_t dim = points[0].size();
  std::vector<float> flat(n_ * dim);
  for (size_t i = 0; i < n_; ++i) {
    DUST_CHECK(points[i].size() == dim);
    std::copy(points[i].begin(), points[i].end(), flat.begin() + i * dim);
  }
  const std::vector<float> norms = NormsOf(points);
  float* const data = data_.get();
  // Row i holds n - 1 - i pairs, so rows i and n - 1 - i hold n - 1.
  ForTriangleRows(pool, n_, n_ - 1, kGrainPairs, [&](size_t i) {
    float* row = data + i * n_;
    row[i] = 0.0f;
    const float* q = flat.data() + i * dim;
    DistanceToRows(metric, q, norms[i], q + dim, norms.data() + i + 1,
                   n_ - i - 1, dim, row + i + 1);
  });
  // Every kernel is symmetric in its two operands, so the lower triangle is
  // the transposed upper one; copy it tile by tile to keep both sides of
  // each tile in cache. Tile row t holds t + 1 tiles, so tile rows t and
  // tiles - 1 - t hold tiles + 1.
  const size_t tiles = (n_ + kMirrorTile - 1) / kMirrorTile;
  ForTriangleRows(pool, tiles, tiles + 1, kGrainTiles, [&](size_t t) {
    const size_t ib = t * kMirrorTile;
    const size_t i_end = std::min(ib + kMirrorTile, n_);
    for (size_t jb = 0; jb <= ib; jb += kMirrorTile) {
      for (size_t i = ib; i < i_end; ++i) {
        float* row = data + i * n_;
        const size_t j_end = std::min(jb + kMirrorTile, i);
        for (size_t j = jb; j < j_end; ++j) row[j] = data[j * n_ + i];
      }
    }
  });
}

DistanceMatrix::DistanceMatrix(const DistanceMatrix& other) : n_(other.n_) {
  if (other.data_ == nullptr) return;
  data_.reset(new float[n_ * n_]);
  std::copy(other.data_.get(), other.data_.get() + n_ * n_, data_.get());
}

DistanceMatrix& DistanceMatrix::operator=(const DistanceMatrix& other) {
  if (this != &other) *this = DistanceMatrix(other);
  return *this;
}

}  // namespace dust::la

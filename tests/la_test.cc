// Unit + property tests for src/la: vector ops, distances, matrices (the
// distance matrix serial and pooled), PCA, and the runtime-dispatched SIMD
// kernel backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "la/distance.h"
#include "la/matrix.h"
#include "la/pca.h"
#include "la/simd/kernels.h"
#include "la/vector_ops.h"
#include "serve/executor.h"
#include "util/rng.h"

namespace dust::la {
namespace {

TEST(VectorOpsTest, DotAndNorm) {
  Vec a = {1, 2, 3};
  Vec b = {4, -5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 4 - 10 + 18);
  EXPECT_FLOAT_EQ(NormSquared(a), 14.0f);
  EXPECT_FLOAT_EQ(Norm(a), std::sqrt(14.0f));
}

TEST(VectorOpsTest, AddSubScale) {
  Vec a = {1, 2};
  Vec b = {3, 4};
  EXPECT_EQ(Add(a, b), (Vec{4, 6}));
  EXPECT_EQ(Sub(b, a), (Vec{2, 2}));
  Vec c = a;
  ScaleInPlace(&c, 2.0f);
  EXPECT_EQ(c, (Vec{2, 4}));
}

TEST(VectorOpsTest, NormalizeUnitLength) {
  Vec a = {3, 4};
  NormalizeInPlace(&a);
  EXPECT_NEAR(Norm(a), 1.0f, 1e-6);
  EXPECT_NEAR(a[0], 0.6f, 1e-6);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoop) {
  Vec z = {0, 0, 0};
  NormalizeInPlace(&z);
  EXPECT_EQ(z, (Vec{0, 0, 0}));
}

TEST(VectorOpsTest, Mean) {
  std::vector<Vec> vs = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(Mean(vs), (Vec{3, 4}));
}

TEST(DistanceTest, CosineIdenticalIsZero) {
  Vec a = {1, 2, 3};
  EXPECT_NEAR(CosineDistance(a, a), 0.0f, 1e-6);
}

TEST(DistanceTest, CosineOrthogonalIsOne) {
  Vec a = {1, 0};
  Vec b = {0, 1};
  EXPECT_NEAR(CosineDistance(a, b), 1.0f, 1e-6);
}

TEST(DistanceTest, CosineOppositeIsTwo) {
  Vec a = {1, 0};
  Vec b = {-2, 0};
  EXPECT_NEAR(CosineDistance(a, b), 2.0f, 1e-6);
}

TEST(DistanceTest, CosineScaleInvariant) {
  Vec a = {1, 2, 3};
  Vec b = {2, 1, 0};
  Vec b10 = b;
  ScaleInPlace(&b10, 10.0f);
  EXPECT_NEAR(CosineDistance(a, b), CosineDistance(a, b10), 1e-6);
}

TEST(DistanceTest, ZeroVectorConventions) {
  Vec z = {0, 0};
  Vec a = {1, 1};
  EXPECT_NEAR(CosineDistance(z, z), 0.0f, 1e-6);  // delta(t,t)=0
  EXPECT_NEAR(CosineDistance(z, a), 1.0f, 1e-6);
}

TEST(DistanceTest, EuclideanAndManhattan) {
  Vec a = {0, 0};
  Vec b = {3, 4};
  EXPECT_FLOAT_EQ(EuclideanDistance(a, b), 5.0f);
  EXPECT_FLOAT_EQ(SquaredEuclideanDistance(a, b), 25.0f);
  EXPECT_FLOAT_EQ(ManhattanDistance(a, b), 7.0f);
}

TEST(DistanceTest, MetricNameRoundTrip) {
  EXPECT_EQ(MetricFromName("cosine").ValueOrDie(), Metric::kCosine);
  EXPECT_EQ(MetricFromName("Euclidean").ValueOrDie(), Metric::kEuclidean);
  EXPECT_EQ(MetricFromName("L1").ValueOrDie(), Metric::kManhattan);
  EXPECT_STREQ(MetricName(Metric::kCosine), "cosine");
}

TEST(DistanceTest, MetricFromNameRejectsUnknownSpellings) {
  // The old behavior silently mapped typos to cosine — an index built with
  // "euclidian" would serve cosine distances without anyone noticing.
  for (const char* bad : {"euclidian", "cos", "L3", "", "manhatan"}) {
    Result<Metric> parsed = MetricFromName(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// Property suite: metric axioms (identity, symmetry, triangle inequality
// for the true metrics) hold on random vectors for every distance.
class MetricPropertyTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricPropertyTest, IdentityAndSymmetry) {
  Metric metric = GetParam();
  dust::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a(8), b(8);
    for (float& x : a) x = static_cast<float>(rng.NextGaussian());
    for (float& x : b) x = static_cast<float>(rng.NextGaussian());
    EXPECT_NEAR(Distance(metric, a, a), 0.0f, 1e-5);
    EXPECT_NEAR(Distance(metric, a, b), Distance(metric, b, a), 1e-5);
    EXPECT_GE(Distance(metric, a, b), -1e-6f);
  }
}

TEST_P(MetricPropertyTest, TriangleInequalityForTrueMetrics) {
  Metric metric = GetParam();
  if (metric == Metric::kCosine) GTEST_SKIP() << "cosine is not a metric";
  dust::Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a(6), b(6), c(6);
    for (float& x : a) x = static_cast<float>(rng.NextGaussian());
    for (float& x : b) x = static_cast<float>(rng.NextGaussian());
    for (float& x : c) x = static_cast<float>(rng.NextGaussian());
    EXPECT_LE(Distance(metric, a, c),
              Distance(metric, a, b) + Distance(metric, b, c) + 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricPropertyTest,
                         ::testing::Values(Metric::kCosine, Metric::kEuclidean,
                                           Metric::kManhattan));

// --- SIMD kernel backends ---------------------------------------------------

Vec RandomVec(size_t dim, dust::Rng* rng) {
  Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

/// SIMD-vs-scalar parity over random vectors at awkward sizes: empty, below
/// one SIMD lane, straddling the 8-lane and 2x8 unrolled boundaries, and a
/// realistic embedding width.
class KernelParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelParityTest, BackendsAgreeWithinTolerance) {
  const size_t dim = GetParam();
  const simd::Kernels& scalar = simd::ScalarKernels();
  // Active() may itself be scalar (DUST_FORCE_SCALAR or no AVX2); also pit
  // the AVX2 backend against scalar explicitly whenever the CPU has it.
  std::vector<const simd::Kernels*> backends = {&simd::Active()};
  if (simd::Avx2Available()) backends.push_back(&simd::Avx2Kernels());

  dust::Rng rng(1234 + dim);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a = RandomVec(dim, &rng);
    Vec b = RandomVec(dim, &rng);
    const float want_dot = scalar.dot(a.data(), b.data(), dim);
    const float want_norm = scalar.norm_squared(a.data(), dim);
    const float want_l2 = scalar.squared_l2(a.data(), b.data(), dim);
    const float want_l1 = scalar.l1(a.data(), b.data(), dim);
    for (const simd::Kernels* ops : backends) {
      // 1e-5 relative: different accumulation orders legitimately differ in
      // the last float bits on long vectors.
      auto tol = [](float want) { return 1e-5f * (1.0f + std::fabs(want)); };
      EXPECT_NEAR(ops->dot(a.data(), b.data(), dim), want_dot, tol(want_dot))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->norm_squared(a.data(), dim), want_norm,
                  tol(want_norm))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->squared_l2(a.data(), b.data(), dim), want_l2,
                  tol(want_l2))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->l1(a.data(), b.data(), dim), want_l1, tol(want_l1))
          << ops->name << " dim " << dim;
      float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
      ops->cosine_terms(a.data(), b.data(), dim, &dot, &a2, &b2);
      EXPECT_NEAR(dot, want_dot, tol(want_dot)) << ops->name;
      EXPECT_NEAR(a2, scalar.norm_squared(a.data(), dim), tol(a2))
          << ops->name;
      EXPECT_NEAR(b2, scalar.norm_squared(b.data(), dim), tol(b2))
          << ops->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AwkwardDims, KernelParityTest,
                         ::testing::Values(0, 1, 7, 31, 33, 1024));

TEST(SimdDispatchTest, ForceScalarSwapsBackend) {
  simd::ForceScalar(true);
  EXPECT_STREQ(simd::ActiveName(), "scalar");
  simd::ForceScalar(false);  // back to the startup selection
  const std::string name = simd::ActiveName();
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

TEST(DistanceToManyTest, MatchesPairwiseDistanceAcrossOverloads) {
  dust::Rng rng(77);
  for (size_t dim : {1u, 7u, 33u, 128u}) {
    std::vector<Vec> base;
    for (int i = 0; i < 17; ++i) base.push_back(RandomVec(dim, &rng));
    Vec query = RandomVec(dim, &rng);
    const std::vector<float> norms = NormsOf(base);
    ASSERT_EQ(norms.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_NEAR(norms[i], Norm(base[i]), 1e-5f);
    }

    for (Metric metric :
         {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
      std::vector<float> plain, cached;
      DistanceToMany(metric, query, base, &plain);
      DistanceToMany(metric, query, base, norms, &cached);
      ASSERT_EQ(plain.size(), base.size());
      ASSERT_EQ(cached.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        const float want = Distance(metric, query, base[i]);
        EXPECT_NEAR(plain[i], want, 1e-5f) << MetricName(metric);
        EXPECT_NEAR(cached[i], want, 1e-5f) << MetricName(metric);
      }

      // Gathered overloads (both id widths), against the same references.
      const std::vector<uint32_t> ids32 = {3, 0, 16, 7, 7};
      const std::vector<size_t> ids64 = {5, 11, 2};
      std::vector<float> out32(ids32.size()), out64(ids64.size());
      DistanceToMany(metric, query, base, norms.data(), ids32.data(),
                     ids32.size(), out32.data());
      DistanceToMany(metric, query, base, nullptr, ids64.data(), ids64.size(),
                     out64.data());
      for (size_t i = 0; i < ids32.size(); ++i) {
        EXPECT_NEAR(out32[i], Distance(metric, query, base[ids32[i]]), 1e-5f);
      }
      for (size_t i = 0; i < ids64.size(); ++i) {
        EXPECT_NEAR(out64[i], Distance(metric, query, base[ids64[i]]), 1e-5f);
      }
    }
  }
}

TEST(DistanceToManyTest, ZeroAndEmptyEdgeCases) {
  // Zero-dimensional vectors are all "the zero vector": cosine distance 0
  // (delta(t,t)=0), L1/L2 distance 0.
  std::vector<Vec> base = {{}, {}};
  std::vector<float> out;
  for (Metric metric :
       {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
    DistanceToMany(metric, Vec{}, base, &out);
    EXPECT_EQ(out, (std::vector<float>{0.0f, 0.0f})) << MetricName(metric);
  }
  // Empty base: no output, no crash.
  DistanceToMany(Metric::kCosine, Vec{1.0f}, {}, &out);
  EXPECT_TRUE(out.empty());
  // Zero vectors inside a non-trivial base follow the cosine conventions.
  std::vector<Vec> mixed = {{0.0f, 0.0f}, {1.0f, 1.0f}};
  DistanceToMany(Metric::kCosine, Vec{0.0f, 0.0f}, mixed, &out);
  EXPECT_NEAR(out[0], 0.0f, 1e-6f);  // zero vs zero
  EXPECT_NEAR(out[1], 1.0f, 1e-6f);  // zero vs non-zero
}

TEST(DistanceTest, CosineDistanceFromDotConventionsAndClamping) {
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 0.0f, 0.0f), 0.0f);
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 1.0f, 0.0f), 1.0f);
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 0.0f, 1.0f), 1.0f);
  // Accumulated error past ±1 clamps instead of going negative / above 2.
  EXPECT_EQ(CosineDistanceFromDot(10.0f, 1.0f, 1.0f), 0.0f);
  EXPECT_EQ(CosineDistanceFromDot(-10.0f, 1.0f, 1.0f), 2.0f);
  // Fused form agrees with the reference three-pass computation.
  dust::Rng rng(88);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a = RandomVec(24, &rng);
    Vec b = RandomVec(24, &rng);
    EXPECT_NEAR(CosineDistanceFromDot(Dot(a, b), Norm(a), Norm(b)),
                CosineDistance(a, b), 1e-5f);
  }
}

TEST(DistanceMatrixTest, MatchesPairwiseDistances) {
  std::vector<Vec> points = {{0, 0}, {3, 4}, {6, 8}};
  DistanceMatrix m(points, Metric::kEuclidean);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FLOAT_EQ(m.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 10.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(DistanceMatrixTest, SetKeepsSymmetry) {
  DistanceMatrix m(std::vector<Vec>{{0.f}, {1.f}}, Metric::kEuclidean);
  m.set(0, 1, 9.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 9.0f);
}

// --- bit-exact parity of the batched paths --------------------------------
//
// The batched kernels and the matrix built on them must change no result,
// so these compare float bits, not values within a tolerance.

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// The scalar table always, and the AVX2 table whenever the CPU has it,
/// whatever DUST_FORCE_SCALAR pinned as the active backend.
std::vector<const simd::Kernels*> AllBackends() {
  std::vector<const simd::Kernels*> backends = {&simd::ScalarKernels()};
  if (simd::Avx2Available()) backends.push_back(&simd::Avx2Kernels());
  return backends;
}

TEST(DotBatchTest, BitIdenticalToDotOnEveryBackend) {
  // Dims straddle the 8-lane step, the 16-wide unrolled loop and the scalar
  // tail (the AVX2 unit is built with -mfma, so the tail's a*b+c may be
  // contracted into an FMA); counts straddle the 4-row groups; stride > dim
  // so rows are not back to back.
  dust::Rng rng(4321);
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t dim : {0u, 1u, 7u, 8u, 15u, 16u, 17u, 31u, 33u, 64u, 1024u}) {
      const size_t stride = dim + 3;
      for (size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 37u}) {
        const Vec q = RandomVec(dim, &rng);
        const Vec base = RandomVec(stride * count, &rng);
        std::vector<float> out(count + 1, -1.0f);
        ops->dot_batch(q.data(), base.data(), stride, count, dim, out.data());
        for (size_t r = 0; r < count; ++r) {
          EXPECT_EQ(FloatBits(out[r]),
                    FloatBits(ops->dot(q.data(), base.data() + r * stride,
                                       dim)))
              << ops->name << " dim " << dim << " count " << count << " row "
              << r;
        }
        EXPECT_EQ(out[count], -1.0f) << "wrote past count";
      }
    }
  }
}

TEST(CosineDotBlockTest, BitIdenticalToCosineTermsOnEveryBackend) {
  // Dims straddle the 8-lane step and the scalar tail (contracted into an
  // FMA in the AVX2 unit); query and row counts 1-9 run every remainder of
  // the AVX2 tile, 4 query rows by 2 rows. One query vector and one row are
  // zero.
  dust::Rng rng(2468);
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t dim :
         {1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 127u}) {
      for (size_t q_count = 1; q_count <= 9; ++q_count) {
        for (size_t row_count = 1; row_count <= 9; ++row_count) {
          Vec q = RandomVec(q_count * dim, &rng);
          Vec rows = RandomVec(row_count * dim, &rng);
          std::fill(q.end() - static_cast<std::ptrdiff_t>(dim), q.end(),
                    0.0f);
          std::fill(rows.begin() + static_cast<std::ptrdiff_t>(
                                       row_count / 2 * dim),
                    rows.begin() + static_cast<std::ptrdiff_t>(
                                       (row_count / 2 + 1) * dim),
                    0.0f);
          std::vector<float> out(q_count * row_count + 1, -1.0f);
          ops->cosine_dot_block(q.data(), q_count, rows.data(), row_count,
                                dim, out.data());
          for (size_t i = 0; i < q_count; ++i) {
            for (size_t r = 0; r < row_count; ++r) {
              float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
              ops->cosine_terms(q.data() + i * dim, rows.data() + r * dim,
                                dim, &dot, &a2, &b2);
              EXPECT_EQ(FloatBits(out[i * row_count + r]), FloatBits(dot))
                  << ops->name << " dim " << dim << " q " << q_count
                  << " rows " << row_count << " pair " << i << "," << r;
            }
          }
          EXPECT_EQ(out.back(), -1.0f) << "wrote past the block";
        }
      }
    }
  }
}

TEST(CosineWeightsTest, EqualFlooredCosineSimilarityOnEveryBackend) {
  // Random pairs plus every special case: a zero vector on each side (two
  // zero vectors weigh 1, one weighs 0), a row with a NaN (weighs 0), an
  // opposite row (negative, floored to 0), and a vector paired with itself
  // whose similarity rounds above 1 before CosineSimilarity's clamp.
  for (bool scalar : {true, false}) {
    simd::ForceScalar(scalar);
    const simd::Kernels& ops = simd::Active();
    dust::Rng rng(97);
    for (size_t dim : {7u, 9u, 64u, 65u}) {
      // A vector whose raw self-similarity reads above 1.
      Vec over;
      bool found = false;
      for (int attempt = 0; attempt < 1000 && !found; ++attempt) {
        over = RandomVec(dim, &rng);
        float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
        ops.cosine_terms(over.data(), over.data(), dim, &dot, &a2, &b2);
        found = dot / (std::sqrt(a2) * std::sqrt(b2)) > 1.0f;
      }
      if (!found) {  // not ASSERT: the backend must be restored below
        ADD_FAILURE() << ops.name << " dim " << dim << ": no clamp case";
        continue;
      }
      std::vector<Vec> queries = {over, Vec(dim, 0.0f)};
      std::vector<Vec> rows = {over, Vec(dim, 0.0f), Vec(dim, 0.0f)};
      for (float& x : rows.back()) x = -over[0];
      rows.back()[0] = std::numeric_limits<float>::quiet_NaN();
      rows.push_back(over);
      for (float& x : rows.back()) x = -x;
      for (int i = 0; i < 3; ++i) queries.push_back(RandomVec(dim, &rng));
      for (int r = 0; r < 5; ++r) rows.push_back(RandomVec(dim, &rng));

      Vec q_flat, row_flat;
      std::vector<float> q_norms, row_norms;
      for (const Vec& v : queries) {
        q_flat.insert(q_flat.end(), v.begin(), v.end());
        q_norms.push_back(CosineNorm(v.data(), dim));
      }
      for (const Vec& v : rows) {
        row_flat.insert(row_flat.end(), v.begin(), v.end());
        row_norms.push_back(CosineNorm(v.data(), dim));
      }
      std::vector<float> out(queries.size() * rows.size());
      CosineWeights(q_flat.data(), q_norms.data(), queries.size(),
                    row_flat.data(), row_norms.data(), rows.size(), dim,
                    out.data());
      for (size_t i = 0; i < queries.size(); ++i) {
        for (size_t r = 0; r < rows.size(); ++r) {
          const double want = std::max(
              0.0, static_cast<double>(CosineSimilarity(queries[i], rows[r])));
          const double got = out[i * rows.size() + r];
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << ops.name << " dim " << dim << " pair " << i << "," << r
              << ": " << got << " vs " << want;
        }
      }
      EXPECT_EQ(out[0], 1.0f);                // clamped self-similarity
      EXPECT_EQ(out[1 * rows.size() + 1], 1.0f);  // two zero vectors
      EXPECT_EQ(out[0 * rows.size() + 1], 0.0f);  // one zero vector
      EXPECT_EQ(out[0 * rows.size() + 2], 0.0f);  // NaN
      EXPECT_EQ(out[0 * rows.size() + 3], 0.0f);  // opposite
    }
  }
  simd::ForceScalar(false);  // back to the startup selection
}

/// The semantics every argmin backend must reproduce.
size_t ReferenceArgmin(const std::vector<float>& a) {
  float best = std::numeric_limits<float>::infinity();
  size_t arg = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < best) {
      best = a[i];
      arg = i;
    }
  }
  return arg;
}

TEST(ArgminTest, FirstMinimumOnEveryBackend) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    std::vector<float> values;
    size_t want;
  };
  const std::vector<Case> cases = {
      {{5.0f}, 0},                                   // n = 1
      {{inf}, 0},                                    // n = 1, +inf
      {{3, 1, 2, 1}, 1},                             // tie: first wins
      {{2, 2, 2}, 0},                                // all tied
      {{inf, inf, inf}, 0},                          // nothing finite
      {{inf, 4, inf, 4}, 1},                         // +inf never wins
      {{nan, 3, nan, 1, 1}, 3},                      // NaN never wins
      {{nan, nan}, 0},                               // nothing comparable
      {{9, 9, 9, 9, 9, 9, 9, 9, 9, 0.5f, 0.5f}, 9},  // past one 8-lane block
      {{-0.0f, 0.0f, 1}, 0},                         // signed zeros tie
  };
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t c = 0; c < cases.size(); ++c) {
      EXPECT_EQ(ops->argmin(cases[c].values.data(), cases[c].values.size()),
                cases[c].want)
          << ops->name << " case " << c;
    }
    // Random spans drawn from a few values (many ties), +inf and NaN, at
    // lengths covering whole blocks and every tail length.
    dust::Rng rng(55);
    const float pool[] = {0.0f, 1.0f, 2.0f, 3.0f, inf, nan};
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<float> values(1 + rng.NextBelow(40));
      for (float& v : values) v = pool[rng.NextBelow(6)];
      EXPECT_EQ(ops->argmin(values.data(), values.size()),
                ReferenceArgmin(values))
          << ops->name << " trial " << trial;
    }
  }
}

/// Leaves a freed n x n block of NaNs on the heap, which the next matrix of
/// that size is likely to be handed: a build that skipped an entry would
/// then read NaN there rather than a fresh page's zero.
void PoisonHeap(size_t n) {
  std::unique_ptr<float[]> block(new float[n * n]);
  std::fill(block.get(), block.get() + n * n,
            std::numeric_limits<float>::quiet_NaN());
}

void ExpectSameBits(const DistanceMatrix& want, const DistanceMatrix& got,
                    const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(FloatBits(want.at(i, j)), FloatBits(got.at(i, j)))
          << what << " (" << i << ", " << j << ")";
    }
  }
}

TEST(DistanceMatrixTest, EntriesBitIdenticalToDistanceToManyRows) {
  // Off the diagonal, row i of the matrix is DistanceToMany's norm-cached
  // row for points[i], under each backend, for every metric, whether the
  // matrix is built inline, on four workers or on the default pool. Row
  // lengths fall on both sides of the batched kernel's 4-row groups, and at
  // n = 700 the pairs span several claims of the pooled build. A duplicate
  // and a zero vector exercise the cosine conventions. The buffer is never
  // zero-filled, so each build follows a freed block of NaNs and the
  // diagonal must still read exactly 0. A copy equals its source.
  ASSERT_GT(700u * 699u / 2u, 4 * DistanceMatrix::kGrainPairs);
  serve::Executor inline_executor(0);
  serve::Executor four(4);
  dust::Rng rng(99);
  for (bool force_scalar : {true, false}) {
    simd::ForceScalar(force_scalar);
    for (size_t dim : {1u, 7u, 33u, 64u}) {
      for (size_t n : {1u, 2u, 3u, 25u, 130u, 700u}) {
        std::vector<Vec> points;
        for (size_t i = 0; i < n; ++i) points.push_back(RandomVec(dim, &rng));
        if (n >= 3) {
          points[n - 2] = points[0];
          points[n - 1] = Vec(dim, 0.0f);
        }
        const std::vector<float> norms = NormsOf(points);
        for (Metric metric :
             {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
          const std::string what = std::string(simd::ActiveName()) + " " +
                                   MetricName(metric) + " dim " +
                                   std::to_string(dim) + " n " +
                                   std::to_string(n);
          const auto build_on = [&](serve::Executor& executor) {
            const serve::ScopedExecutor scope(executor);
            PoisonHeap(n);
            return DistanceMatrix(points, metric);
          };
          const DistanceMatrix serial = build_on(inline_executor);
          const DistanceMatrix pooled = build_on(four);
          const DistanceMatrix on_default =
              build_on(serve::Executor::Default());
          ExpectSameBits(serial, pooled, what + " Executor(4)");
          ExpectSameBits(serial, on_default, what + " Default()");
          std::vector<float> row;
          for (size_t i = 0; i < n; ++i) {
            DistanceToMany(metric, points[i], points, norms, &row);
            for (size_t j = 0; j < n; ++j) {
              const float want = i == j ? 0.0f : row[j];
              ASSERT_EQ(FloatBits(pooled.at(i, j)), FloatBits(want))
                  << what << " (" << i << ", " << j << ")";
            }
          }
          const DistanceMatrix copy = pooled;
          ExpectSameBits(pooled, copy, what + " copy");
          DistanceMatrix assigned;
          assigned = pooled;
          ExpectSameBits(pooled, assigned, what + " copy-assigned");
        }
      }
    }
  }
  simd::ForceScalar(false);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  // [[1 2 3], [4 5 6]]
  for (size_t c = 0; c < 3; ++c) {
    m.at(0, c) = static_cast<float>(c + 1);
    m.at(1, c) = static_cast<float>(c + 4);
  }
  Vec y = m.MatVec({1, 1, 1});
  EXPECT_EQ(y, (Vec{6, 15}));
}

TEST(PcaTest, RecoversDominantDirection) {
  // Points stretched along (1,1)/sqrt(2) with small orthogonal noise.
  dust::Rng rng(5);
  std::vector<Vec> points;
  for (int i = 0; i < 200; ++i) {
    float t = static_cast<float>(rng.NextGaussian()) * 10.0f;
    float n = static_cast<float>(rng.NextGaussian()) * 0.1f;
    points.push_back({t + n, t - n});
  }
  PcaResult pca = ComputePca(points, 1);
  float c = std::fabs(pca.components[0][0] * pca.components[0][1]);
  // Both components of the direction should be ~1/sqrt(2): product ~0.5.
  EXPECT_NEAR(c, 0.5f, 0.02f);
  EXPECT_GT(pca.explained_variance[0], 50.0f);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  dust::Rng rng(6);
  std::vector<Vec> points;
  for (int i = 0; i < 100; ++i) {
    Vec p(5);
    for (float& x : p) x = static_cast<float>(rng.NextGaussian());
    points.push_back(p);
  }
  PcaResult pca = ComputePca(points, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(Norm(pca.components[i]), 1.0f, 1e-3);
    for (size_t j = i + 1; j < 3; ++j) {
      EXPECT_NEAR(Dot(pca.components[i], pca.components[j]), 0.0f, 1e-3);
    }
  }
}

TEST(PcaTest, VarianceIsNonIncreasing) {
  dust::Rng rng(7);
  std::vector<Vec> points;
  for (int i = 0; i < 150; ++i) {
    Vec p(4);
    p[0] = static_cast<float>(rng.NextGaussian()) * 5.0f;
    p[1] = static_cast<float>(rng.NextGaussian()) * 2.0f;
    p[2] = static_cast<float>(rng.NextGaussian()) * 1.0f;
    p[3] = static_cast<float>(rng.NextGaussian()) * 0.2f;
    points.push_back(p);
  }
  PcaResult pca = ComputePca(points, 3);
  EXPECT_GE(pca.explained_variance[0], pca.explained_variance[1] - 1e-3);
  EXPECT_GE(pca.explained_variance[1], pca.explained_variance[2] - 1e-3);
}

TEST(PcaTest, ProjectionMatchesStoredProjection) {
  std::vector<Vec> points = {{1, 0}, {0, 1}, {2, 2}, {3, 1}};
  PcaResult pca = ComputePca(points, 2);
  for (size_t i = 0; i < points.size(); ++i) {
    Vec p = PcaProject(pca, points[i]);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_NEAR(p[0], pca.projected[i][0], 1e-5);
    EXPECT_NEAR(p[1], pca.projected[i][1], 1e-5);
  }
}

TEST(PcaTest, DeterministicAcrossRuns) {
  std::vector<Vec> points = {{1, 2}, {3, 1}, {0, 5}, {2, 2}, {4, 0}};
  PcaResult a = ComputePca(points, 2, 17);
  PcaResult b = ComputePca(points, 2, 17);
  EXPECT_EQ(a.components[0], b.components[0]);
  EXPECT_EQ(a.projected[3], b.projected[3]);
}

}  // namespace
}  // namespace dust::la

// Unit tests for src/nn: layers (with numerical gradient checks), loss,
// optimizers, the DustModel, and the training loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>

#include "datagen/tus_generator.h"
#include "la/distance.h"
#include "la/simd/kernels.h"
#include "nn/dust_model.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "table/serialize.h"

namespace dust::nn {
namespace {

TEST(LinearTest, ForwardShapeAndBias) {
  Linear lin(3, 2, 42);
  lin.bias() = {1.0f, -1.0f};
  la::Vec y = lin.Forward({0, 0, 0});
  EXPECT_EQ(y, (la::Vec{1.0f, -1.0f}));
}

TEST(LinearTest, SparseForwardMatchesDense) {
  Linear lin(8, 4, 7);
  text::SparseVector sv;
  sv.indices = {1, 5};
  sv.values = {2.0f, -1.5f};
  la::Vec dense(8, 0.0f);
  dense[1] = 2.0f;
  dense[5] = -1.5f;
  la::Vec a = lin.Forward(dense);
  la::Vec b = lin.ForwardSparse(sv);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

TEST(LinearTest, NumericalGradientCheck) {
  // L = sum(y); analytic dL/dW vs finite differences.
  Linear lin(4, 3, 11);
  la::Vec x = {0.5f, -1.0f, 2.0f, 0.3f};
  la::Vec dy(3, 1.0f);  // dL/dy = 1
  lin.ZeroGrad();
  la::Vec dx = lin.Backward(x, dy);

  // weights() is stored feature-major: at(c, r) is input c -> output r.
  const float eps = 1e-3f;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      float original = lin.weights().at(c, r);
      lin.weights().at(c, r) = original + eps;
      la::Vec y_plus = lin.Forward(x);
      lin.weights().at(c, r) = original - eps;
      la::Vec y_minus = lin.Forward(x);
      lin.weights().at(c, r) = original;
      float numeric = 0.0f;
      for (size_t i = 0; i < 3; ++i) numeric += (y_plus[i] - y_minus[i]);
      numeric /= (2 * eps);
      EXPECT_NEAR(lin.weight_grad().at(c, r), numeric, 1e-2);
    }
  }
  // dL/dx = W^T dy, and W^T is the stored in x out matrix.
  la::Vec expected_dx = lin.weights().MatVec(dy);
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(dx[i], expected_dx[i], 1e-5);
}

TEST(LinearTest, SparseBackwardMatchesDense) {
  Linear a(6, 2, 5);
  Linear b(6, 2, 5);  // identical init
  la::Vec dense(6, 0.0f);
  dense[2] = 1.5f;
  text::SparseVector sv;
  sv.indices = {2};
  sv.values = {1.5f};
  la::Vec dy = {0.3f, -0.7f};
  a.ZeroGrad();
  b.ZeroGrad();
  a.Backward(dense, dy);
  b.BackwardSparse(sv, dy);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(a.weight_grad().at(c, r), b.weight_grad().at(c, r), 1e-6);
    }
    EXPECT_NEAR(a.bias_grad()[r], b.bias_grad()[r], 1e-6);
  }
}

TEST(LinearTest, ForwardMatchesRowMajorMatVecBitForBit) {
  // Forward keeps la::Matrix::MatVec's per-output order over the
  // conventional out x in matrix, so its bits; ForwardSparse over every
  // feature is the same sum.
  Linear lin(37, 5, 3);
  la::Matrix row_major(5, 37);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 37; ++c) row_major.at(r, c) = lin.weights().at(c, r);
  }
  lin.bias() = {0.5f, -0.25f, 1e-3f, 3.0f, -7.0f};
  la::Vec x(37);
  text::SparseVector sv;
  for (size_t c = 0; c < 37; ++c) {
    x[c] = std::sin(static_cast<float>(c) * 1.7f) * 3.0f;
    sv.indices.push_back(static_cast<uint32_t>(c));
    sv.values.push_back(x[c]);
  }
  la::Vec expected = row_major.MatVec(x);
  la::AddInPlace(&expected, lin.bias());
  EXPECT_EQ(lin.Forward(x), expected);
}

TEST(LinearTest, ParamsUseFileOrder) {
  // AppendParams writes W out x in (row r = output r), then b; ReadParams
  // reads the same order back into the feature-major store.
  Linear lin(3, 2, 9);
  std::vector<float> params;
  lin.AppendParams(&params);
  ASSERT_EQ(params.size(), lin.num_params());
  ASSERT_EQ(params.size(), 3u * 2u + 2u);
  EXPECT_EQ(params[0 * 3 + 2], lin.weights().at(2, 0));
  EXPECT_EQ(params[1 * 3 + 0], lin.weights().at(0, 1));
  std::vector<float> file = {1, 2, 3, 4, 5, 6, 7, 8};
  lin.ReadParams(file.data());
  EXPECT_EQ(lin.weights().at(0, 1), 4.0f);  // output 1, input 0
  EXPECT_EQ(lin.weights().at(2, 0), 3.0f);  // output 0, input 2
  EXPECT_EQ(lin.bias(), (la::Vec{7.0f, 8.0f}));
  params.clear();
  lin.AppendParams(&params);
  EXPECT_EQ(params, file);
}

TEST(TanhTest, ForwardBackward) {
  la::Vec x = {0.0f, 1.0f, -1.0f};
  la::Vec y = TanhForward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], std::tanh(1.0f), 1e-6);
  la::Vec dx = TanhBackward(y, {1, 1, 1});
  EXPECT_NEAR(dx[0], 1.0f, 1e-6);  // 1 - tanh(0)^2 = 1
  EXPECT_NEAR(dx[1], 1.0f - y[1] * y[1], 1e-6);
}

TEST(CosineLossTest, SimilarPairValues) {
  la::Vec a = {1, 0};
  la::Vec b = {1, 0};
  CosineLossResult r = CosineEmbeddingLoss(a, b, 1);
  EXPECT_NEAR(r.loss, 0.0f, 1e-6);
  la::Vec c = {0, 1};
  r = CosineEmbeddingLoss(a, c, 1);
  EXPECT_NEAR(r.loss, 1.0f, 1e-6);
}

TEST(CosineLossTest, DissimilarPairHinge) {
  la::Vec a = {1, 0};
  la::Vec b = {1, 0};
  CosineLossResult r = CosineEmbeddingLoss(a, b, 0);
  EXPECT_NEAR(r.loss, 1.0f, 1e-6);  // cos=1, max(0, 1-0)
  la::Vec c = {-1, 0};
  r = CosineEmbeddingLoss(a, c, 0);
  EXPECT_NEAR(r.loss, 0.0f, 1e-6);  // cos=-1 clipped at 0
  EXPECT_EQ(r.grad_a, (la::Vec{0, 0}));  // inactive hinge: zero gradient
}

TEST(CosineLossTest, MarginShiftsHinge) {
  la::Vec a = {1, 0};
  la::Vec b = {1, 1};  // cos = 1/sqrt(2) ~ .707
  CosineLossResult r = CosineEmbeddingLoss(a, b, 0, 0.5f);
  EXPECT_NEAR(r.loss, 1.0f / std::sqrt(2.0f) - 0.5f, 1e-5);
}

TEST(CosineLossTest, NumericalGradientCheck) {
  la::Vec a = {0.8f, -0.3f, 0.5f};
  la::Vec b = {-0.2f, 0.9f, 0.4f};
  for (int label : {0, 1}) {
    CosineLossResult r = CosineEmbeddingLoss(a, b, label);
    const float eps = 1e-3f;
    for (size_t i = 0; i < a.size(); ++i) {
      la::Vec ap = a;
      ap[i] += eps;
      la::Vec am = a;
      am[i] -= eps;
      float numeric = (CosineEmbeddingLoss(ap, b, label).loss -
                       CosineEmbeddingLoss(am, b, label).loss) /
                      (2 * eps);
      EXPECT_NEAR(r.grad_a[i], numeric, 1e-2) << "label=" << label;
    }
  }
}

TEST(CosineLossTest, ZeroVectorIsSafe) {
  la::Vec z = {0, 0};
  la::Vec a = {1, 0};
  CosineLossResult r = CosineEmbeddingLoss(z, a, 1);
  EXPECT_FLOAT_EQ(r.loss, 1.0f);
  EXPECT_EQ(r.grad_a, (la::Vec{0, 0}));
}

// Adam should drive a quadratic toward its minimum.
TEST(OptimizerTest, AdamConverges) {
  // f(p) = (p - 3)^2, df/dp = 2(p-3).
  std::vector<float> param = {0.0f};
  std::vector<float> grad = {0.0f};
  Adam optimizer(0.05f);
  optimizer.Register({param.data(), grad.data(), 1});
  for (int step = 0; step < 500; ++step) {
    grad[0] = 2.0f * (param[0] - 3.0f);
    optimizer.Step();
  }
  EXPECT_NEAR(param[0], 3.0f, 0.1f);
}

DustModelConfig SmallModelConfig() {
  DustModelConfig config;
  config.feature_dim = 256;
  config.hidden_dim = 16;
  config.embedding_dim = 8;
  config.dropout_p = 0.1f;
  return config;
}

TEST(DustModelTest, EncodeShapesAndDeterminism) {
  DustModel model(SmallModelConfig());
  la::Vec e = model.EncodeSerialized("[CLS] Park Name River Park [SEP]");
  EXPECT_EQ(e.size(), 8u);
  EXPECT_EQ(e, model.EncodeSerialized("[CLS] Park Name River Park [SEP]"));
  EXPECT_EQ(model.name(), "DUST (RoBERTa)");
}

TEST(DustModelTest, SaveLoadParamsRoundTrip) {
  DustModel model(SmallModelConfig());
  std::vector<float> params = model.SaveParams();
  la::Vec before = model.EncodeSerialized("[CLS] A x [SEP]");
  // Perturb, then restore.
  std::vector<float> zeros(params.size(), 0.0f);
  model.LoadParams(zeros);
  la::Vec zeroed = model.EncodeSerialized("[CLS] A x [SEP]");
  EXPECT_NE(before, zeroed);
  model.LoadParams(params);
  EXPECT_EQ(before, model.EncodeSerialized("[CLS] A x [SEP]"));
}

TEST(DustModelTest, FileRoundTrip) {
  DustModel model(SmallModelConfig());
  la::Vec before = model.EncodeSerialized("[CLS] A x [SEP]");
  std::string path = ::testing::TempDir() + "/dust_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  DustModel loaded(SmallModelConfig());
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(before, loaded.EncodeSerialized("[CLS] A x [SEP]"));
}

TEST(DustModelTest, FileShapeMismatchRejected) {
  DustModel model(SmallModelConfig());
  std::string path = ::testing::TempDir() + "/dust_model2.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  DustModelConfig other = SmallModelConfig();
  other.embedding_dim = 4;
  DustModel wrong(other);
  EXPECT_FALSE(wrong.LoadFromFile(path).ok());
}

// --- corrupt model files ----------------------------------------------------
//
// Layout: u32 magic, u64 dims[4], u64 count, count floats.

constexpr size_t kCountOffset = 4 + 4 * 8;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Saves a model, lets `patch` edit the bytes, and loads them into a
/// differently seeded model. A failed load must name the file and leave
/// the model unchanged.
Status LoadPatched(const std::string& name,
                   const std::function<void(std::string*)>& patch) {
  DustModel saved(SmallModelConfig());
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(saved.SaveToFile(path).ok());
  std::string bytes = ReadAll(path);
  patch(&bytes);
  WriteAll(path, bytes);
  DustModelConfig config = SmallModelConfig();
  config.seed = 99;
  DustModel target(config);
  const std::vector<float> before = target.SaveParams();
  Status status = target.LoadFromFile(path);
  if (status.ok()) {
    EXPECT_EQ(target.SaveParams(), saved.SaveParams());
  } else {
    EXPECT_EQ(target.SaveParams(), before) << "a failed load changed it";
    EXPECT_NE(status.message().find(path), std::string::npos)
        << status.ToString();
  }
  return status;
}

void PatchCount(std::string* bytes, uint64_t count) {
  std::memcpy(&(*bytes)[kCountOffset], &count, sizeof(count));
}

TEST(DustModelFileTest, ShortParameterCountIsAnIoError) {
  // Before the count check this reached LoadParams' DUST_CHECK and aborted.
  const auto patch = [](std::string* b) { PatchCount(b, 10); };
  Status s = LoadPatched("short_count.bin", patch);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
}

TEST(DustModelFileTest, HugeParameterCountIsAnIoError) {
  // 2^62 floats: sizing a vector by it threw std::length_error.
  const auto patch = [](std::string* b) { PatchCount(b, uint64_t{1} << 62); };
  Status s = LoadPatched("huge_count.bin", patch);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
}

TEST(DustModelFileTest, TruncatedPayloadIsAnIoError) {
  const auto patch = [](std::string* b) { b->resize(b->size() - 5); };
  Status s = LoadPatched("truncated.bin", patch);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
}

TEST(DustModelFileTest, NonFiniteWeightIsAnIoError) {
  const size_t offset = kCountOffset + 8 + 17 * sizeof(float);
  for (float bad : {std::nanf(""), std::numeric_limits<float>::infinity()}) {
    const auto patch = [&](std::string* b) {
      std::memcpy(&(*b)[offset], &bad, sizeof(bad));
    };
    Status s = LoadPatched("nan_weight.bin", patch);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }
}

TEST(DustModelFileTest, TrailingBytesAreAnIoError) {
  // Every section before the appended bytes checks out, so only the end
  // check can catch them.
  DustModelConfig config;
  config.feature_dim = 64;
  config.hidden_dim = 8;
  config.embedding_dim = 4;
  DustModel saved(config);
  const std::string path = ::testing::TempDir() + "/trailing_bytes.bin";
  ASSERT_TRUE(saved.SaveToFile(path).ok());
  const std::string bytes = ReadAll(path);
  WriteAll(path, bytes + std::string(14, '\0'));
  config.seed = 99;
  DustModel target(config);
  const std::vector<float> before = target.SaveParams();
  Status status = target.LoadFromFile(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_NE(status.message().find("14 extra bytes after the end of " + path),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(target.SaveParams(), before) << "a failed load changed it";
  WriteAll(path, bytes);
  ASSERT_TRUE(target.LoadFromFile(path).ok());
  EXPECT_EQ(target.SaveParams(), saved.SaveParams());
}

TEST(DustModelFileTest, UnpatchedFileLoads) {
  const auto patch = [](std::string*) {};
  EXPECT_TRUE(LoadPatched("unpatched.bin", patch).ok());
}

std::vector<TuplePair> ToyPairs() {
  // Unionable: park-style tuples; non-unionable: park vs painting.
  std::vector<TuplePair> pairs;
  std::vector<std::string> parks = {
      "[CLS] Park Name River Park [SEP] Country USA [SEP]",
      "[CLS] Park Name Hyde Park [SEP] Country UK [SEP]",
      "[CLS] Park Name Cedar Park [SEP] Country Canada [SEP]",
      "[CLS] Park Name Maple Park [SEP] Country USA [SEP]"};
  std::vector<std::string> paintings = {
      "[CLS] Painting Northern Lake [SEP] Medium Oil on canvas [SEP]",
      "[CLS] Painting Silent Harbor [SEP] Medium Watercolor [SEP]",
      "[CLS] Painting Crimson Field [SEP] Medium Tempera [SEP]",
      "[CLS] Painting Amber Valley [SEP] Medium Gouache [SEP]"};
  for (size_t i = 0; i < parks.size(); ++i) {
    for (size_t j = i + 1; j < parks.size(); ++j) {
      pairs.push_back({parks[i], parks[j], 1});
      pairs.push_back({paintings[i], paintings[j], 1});
    }
  }
  for (const auto& p : parks) {
    for (const auto& q : paintings) pairs.push_back({p, q, 0});
  }
  return pairs;
}

TEST(TrainerTest, TrainingReducesValidationLoss) {
  DustModel model(SmallModelConfig());
  std::vector<TuplePair> pairs = ToyPairs();
  float before = EvaluateLoss(model, pairs);
  TrainerConfig config;
  config.max_epochs = 30;
  config.batch_size = 8;
  TrainReport report = TrainDustModel(&model, pairs, pairs, config);
  float after = EvaluateLoss(model, pairs);
  EXPECT_LT(after, before);
  EXPECT_GE(report.epochs_run, 1u);
  EXPECT_EQ(report.train_loss_per_epoch.size(), report.epochs_run);
}

TEST(TrainerTest, TrainedModelSeparatesClasses) {
  DustModel model(SmallModelConfig());
  std::vector<TuplePair> pairs = ToyPairs();
  TrainerConfig config;
  config.max_epochs = 60;
  config.batch_size = 8;
  TrainDustModel(&model, pairs, pairs, config);
  float threshold = SelectThreshold(model, pairs);
  float accuracy = PairAccuracy(model, pairs, threshold);
  EXPECT_GT(accuracy, 0.9f);
}

TEST(TrainerTest, EarlyStoppingTriggers) {
  DustModel model(SmallModelConfig());
  std::vector<TuplePair> pairs = ToyPairs();
  TrainerConfig config;
  config.max_epochs = 100;
  config.patience = 3;
  TrainReport report = TrainDustModel(&model, pairs, pairs, config);
  // Either converged early or ran out of epochs; both leave a best model.
  EXPECT_LE(report.epochs_run, 100u);
  EXPECT_GE(report.best_validation_loss, 0.0f);
}

TEST(TrainerTest, PairAccuracyOnEmptyPairsIsZero) {
  DustModel model(SmallModelConfig());
  EXPECT_FLOAT_EQ(PairAccuracy(model, {}, 0.7f), 0.0f);
}

// --- golden model bits ------------------------------------------------------

/// FNV-1a over a byte span.
uint64_t HashBytes(const void* data, size_t size,
                   uint64_t h = 14695981039346656037ull) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashFloats(const std::vector<float>& v) {
  return HashBytes(v.data(), v.size() * sizeof(float));
}

/// Every row of a small generated TUS lake and its queries, serialized as
/// Algorithm 1 serializes unioned tuples, plus hand-written edge cases.
std::vector<std::string> GoldenTuples() {
  datagen::TusConfig config;
  config.num_queries = 2;
  config.unionable_per_query = 3;
  config.distractors_per_base = 1;
  config.base_rows = 40;
  config.seed = 11;
  datagen::Benchmark benchmark = datagen::GenerateTus(config);
  std::vector<std::string> tuples = {
      "",
      "[CLS] [SEP]",
      "[CLS] Name Caf\xc3\xa9 [SEP] Code AB-12 [SEP]",
      "[CLS] Word supercalifragilisticexpialidocious [SEP]",
  };
  auto add_rows = [&tuples](const table::Table& t) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      tuples.push_back(table::SerializeTableRow(t, r));
    }
  };
  for (const auto& t : benchmark.lake) add_rows(t.data);
  for (const auto& q : benchmark.queries) add_rows(q.data);
  return tuples;
}

/// The benchmark's DustModel: default config (seed 7) at dim 64.
DustModelConfig PerfbenchModelConfig() {
  DustModelConfig config;
  config.embedding_dim = 64;
  return config;
}

TEST(DustModelGoldenTest, EncodeSerializedBitsArePinned) {
  // EncodeSerialized runs no SIMD kernel, so both backends share one value.
  DustModel model(PerfbenchModelConfig());
  uint64_t h = 14695981039346656037ull;
  for (const std::string& tuple : GoldenTuples()) {
    la::Vec e = model.EncodeSerialized(tuple);
    h = HashBytes(e.data(), e.size() * sizeof(float), h);
  }
  EXPECT_EQ(h, 0xa9b6678bc582cd8full) << "hash 0x" << std::hex << h;
}

TEST(DustModelGoldenTest, SavedParamsAndFileBytesArePinned) {
  // SaveParams and the model file keep W out_dim x in_dim, whatever order
  // Linear stores it in.
  DustModel model(PerfbenchModelConfig());
  const uint64_t params = HashFloats(model.SaveParams());
  EXPECT_EQ(params, 0xfb1a34f91f393bbaull)
      << "params hash 0x" << std::hex << params;
  const std::string path = ::testing::TempDir() + "/dust_model_golden.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const uint64_t file = HashBytes(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), 4u + 4 * 8 + 8 + model.SaveParams().size() * 4);
  EXPECT_EQ(file, 0x077520a436a0c5c1ull) << "file hash 0x" << std::hex << file;
}

TEST(DustModelGoldenTest, TrainedParamsArePinned) {
  // Training runs Forward, Backward, BackwardSparse and Adam steps; the
  // cosine loss uses the SIMD dot, so each backend has its own value.
  DustModel model(SmallModelConfig());
  TrainerConfig config;
  config.max_epochs = 30;
  config.batch_size = 8;
  TrainDustModel(&model, ToyPairs(), ToyPairs(), config);
  const uint64_t h = HashFloats(model.SaveParams());
  const std::map<std::string, uint64_t> expected = {
      {"avx2", 0x9530110ad6c7c82cull},
      {"scalar", 0x30c5c512ee3b714cull},
  };
  const std::string backend = la::simd::ActiveName();
  ASSERT_EQ(expected.count(backend), 1u) << backend;
  EXPECT_EQ(h, expected.at(backend)) << backend << " hash 0x" << std::hex << h;
}

}  // namespace
}  // namespace dust::nn

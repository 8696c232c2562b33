// Persistence tests for src/io: save/load round-trip parity for every
// index type and metric, corrupt/truncated/version-mismatch/trailing-byte
// rejection, empty-index round-trips, a seeded corruption loop over the
// index and snapshot files dust_cli loads, and the writer/reader
// primitives themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "embed/embedder.h"
#include "embed/tuple_encoder.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "io/index_io.h"
#include "nn/dust_model.h"
#include "search/tuple_search.h"
#include "text/hashing.h"
#include "util/rng.h"

namespace dust::io {
namespace {

using index::FlatIndex;
using index::HnswIndex;
using index::VectorIndex;

std::vector<la::Vec> RandomUnitVectors(size_t n, size_t dim, uint64_t seed) {
  dust::Rng rng(seed);
  std::vector<la::Vec> out;
  for (size_t i = 0; i < n; ++i) {
    la::Vec v(dim);
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
    la::NormalizeInPlace(&v);
    out.push_back(v);
  }
  return out;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Asserts that `loaded` answers a query batch bit-identically to
/// `original` (ids and float distances), per the round-trip contract.
void ExpectSearchParity(const VectorIndex& original, const VectorIndex& loaded,
                        size_t num_queries, size_t k, uint64_t seed) {
  auto queries = RandomUnitVectors(num_queries, original.dim(), seed);
  auto expected = original.SearchBatch(queries, k);
  auto actual = loaded.SearchBatch(queries, k);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, actual[q][i].id) << "query " << q;
      // Exact equality on purpose: the loaded index must be bit-identical,
      // not merely close.
      EXPECT_EQ(expected[q][i].distance, actual[q][i].distance)
          << "query " << q;
    }
  }
}

// --- round-trip parity across all types and both metrics -------------------

struct RoundTripCase {
  const char* type;
  la::Metric metric;
};

class RoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripTest, SearchBatchParityOn1kVectors) {
  const RoundTripCase& param = GetParam();
  const size_t kDim = 16;
  auto index = index::MakeVectorIndex(param.type, kDim, param.metric);
  index->AddAll(RandomUnitVectors(1000, kDim, 71));

  const std::string path = TempPath(std::string("roundtrip_") + param.type +
                                    std::to_string(MetricTag(param.metric)));
  ASSERT_TRUE(SaveIndex(*index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const VectorIndex& restored = *loaded.value();
  EXPECT_EQ(restored.type_tag(), param.type);
  EXPECT_EQ(restored.name(), index->name());
  EXPECT_EQ(restored.size(), index->size());
  EXPECT_EQ(restored.dim(), index->dim());
  EXPECT_EQ(restored.metric(), param.metric);
  ExpectSearchParity(*index, restored, 32, 10, 9000);
}

TEST_P(RoundTripTest, EmptyIndexRoundTrips) {
  const RoundTripCase& param = GetParam();
  auto index = index::MakeVectorIndex(param.type, 8, param.metric);
  const std::string path = TempPath(std::string("empty_") + param.type +
                                    std::to_string(MetricTag(param.metric)));
  ASSERT_TRUE(SaveIndex(*index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->size(), 0u);
  EXPECT_TRUE(loaded.value()->Search(la::Vec(8, 0.5f), 3).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, RoundTripTest,
    ::testing::Values(RoundTripCase{"flat", la::Metric::kCosine},
                      RoundTripCase{"flat", la::Metric::kEuclidean},
                      RoundTripCase{"flat", la::Metric::kManhattan},
                      RoundTripCase{"hnsw", la::Metric::kCosine},
                      RoundTripCase{"hnsw", la::Metric::kEuclidean}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.type) + "_" +
             la::MetricName(info.param.metric);
    });

// --- config fidelity -------------------------------------------------------

TEST(IndexIoTest, HnswCustomConfigAndGraphShapeSurviveRoundTrip) {
  index::HnswConfig config;
  config.M = 8;
  config.ef_construction = 100;
  config.ef_search = 64;
  config.seed = 7;
  HnswIndex hnsw(12, la::Metric::kCosine, config);
  hnsw.AddAll(RandomUnitVectors(600, 12, 13));

  const std::string path = TempPath("hnsw_config");
  ASSERT_TRUE(SaveIndex(hnsw, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto* restored = dynamic_cast<HnswIndex*>(loaded.value().get());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->config().M, config.M);
  EXPECT_EQ(restored->config().ef_construction, config.ef_construction);
  EXPECT_EQ(restored->config().ef_search, config.ef_search);
  EXPECT_EQ(restored->config().seed, config.seed);
  EXPECT_EQ(restored->max_level(), hnsw.max_level());
  ExpectSearchParity(hnsw, *restored, 16, 5, 9100);
}

// --- tombstones on disk (format v2) ----------------------------------------

TEST_P(RoundTripTest, TombstonesSurviveRoundTrip) {
  const RoundTripCase& param = GetParam();
  const size_t kDim = 16;
  auto index = index::MakeVectorIndex(param.type, kDim, param.metric);
  index->AddAll(RandomUnitVectors(400, kDim, 73));
  ASSERT_EQ(index->RemoveAll({3, 17, 200, 399}), 4u);

  const std::string path = TempPath(std::string("tombstones_") + param.type +
                                    std::to_string(MetricTag(param.metric)));
  ASSERT_TRUE(SaveIndex(*index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const VectorIndex& restored = *loaded.value();
  EXPECT_EQ(restored.size(), 400u);
  EXPECT_EQ(restored.live_size(), 396u);
  EXPECT_EQ(restored.Tombstones(), (std::vector<size_t>{3, 17, 200, 399}));
  // The restored index must filter tombstones exactly like the saved one.
  ExpectSearchParity(*index, restored, 32, 10, 9500);
}

TEST(IndexIoTest, V1FileLoadsWithEmptyTombstoneSet) {
  // Pre-mutation files carry version 1 and no tombstone section; they must
  // keep loading, with every vector live.
  const std::string path = TempPath("v1_flat.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(1);  // format v1
  writer.WriteU8(0);   // flat
  writer.WriteU8(0);   // cosine
  writer.WriteU64(2);  // dim
  writer.WriteU64(2);  // two vectors, no tombstone section before them
  writer.WriteVec({1.0f, 0.0f});
  writer.WriteVec({0.0f, 1.0f});
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->size(), 2u);
  EXPECT_EQ(loaded.value()->live_size(), 2u);
  EXPECT_EQ(loaded.value()->num_tombstones(), 0u);
  EXPECT_EQ(loaded.value()->Search({1.0f, 0.0f}, 1).at(0).id, 0u);
}

TEST(IndexIoTest, TruncatedTombstoneListRejected) {
  // The tombstone count promises more ids than the file holds: rejected by
  // the count bounds check, before any allocation or payload read.
  const std::string path = TempPath("truncated_tombstones.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(kIndexFormatVersion);
  writer.WriteU8(0);     // flat
  writer.WriteU8(0);     // cosine
  writer.WriteU64(2);    // dim
  writer.WriteU64(100);  // tombstone count, but no ids follow
  writer.WriteU64(0);    // (read as the first of the promised ids)
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, OutOfRangeTombstoneIdRejected) {
  // A tombstone id past the payload's vector count means the file is
  // corrupt (or the sections were spliced from different indexes).
  const std::string path = TempPath("tombstone_range.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(kIndexFormatVersion);
  writer.WriteU8(0);   // flat
  writer.WriteU8(0);   // cosine
  writer.WriteU64(2);  // dim
  writer.WriteIds({5});  // payload only has 2 vectors
  writer.WriteU64(2);
  writer.WriteVec({1.0f, 0.0f});
  writer.WriteVec({0.0f, 1.0f});
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("out of range"), std::string::npos);
}

TEST(IndexIoTest, DuplicateTombstoneIdRejected) {
  const std::string path = TempPath("tombstone_dup.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(kIndexFormatVersion);
  writer.WriteU8(0);   // flat
  writer.WriteU8(0);   // cosine
  writer.WriteU64(2);  // dim
  writer.WriteIds({0, 0});
  writer.WriteU64(2);
  writer.WriteVec({1.0f, 0.0f});
  writer.WriteVec({0.0f, 1.0f});
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("duplicate"), std::string::npos);
}

TEST(IndexIoTest, CompactedIndexRoundTripsWithoutTombstones) {
  FlatIndex flat(8, la::Metric::kCosine);
  flat.AddAll(RandomUnitVectors(200, 8, 47));
  for (size_t id = 0; id < 200; id += 3) flat.Remove(id);
  std::vector<size_t> remap;
  auto compacted = flat.Compact(&remap);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value()->size(), flat.live_size());
  EXPECT_EQ(compacted.value()->num_tombstones(), 0u);

  const std::string path = TempPath("compacted.idx");
  ASSERT_TRUE(SaveIndex(*compacted.value(), path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_tombstones(), 0u);
  // Loaded compacted index answers exactly like the in-memory compacted
  // one, which in turn answers exactly like the tombstoned original modulo
  // the id remap (flat is exact, so distances are bit-identical).
  ExpectSearchParity(*compacted.value(), *loaded.value(), 16, 10, 9700);
  auto queries = RandomUnitVectors(16, 8, 9800);
  auto original_hits = flat.SearchBatch(queries, 10);
  auto compact_hits = loaded.value()->SearchBatch(queries, 10);
  ASSERT_EQ(original_hits.size(), compact_hits.size());
  for (size_t q = 0; q < original_hits.size(); ++q) {
    ASSERT_EQ(original_hits[q].size(), compact_hits[q].size());
    for (size_t i = 0; i < original_hits[q].size(); ++i) {
      EXPECT_EQ(remap[original_hits[q][i].id], compact_hits[q][i].id);
      EXPECT_EQ(original_hits[q][i].distance, compact_hits[q][i].distance);
    }
  }
}

TEST(IndexIoTest, AddAfterLoadKeepsServing) {
  // Incremental ingest: a loaded index accepts new vectors and returns
  // them from searches (norm caches and graphs stay consistent).
  for (const char* type : {"flat", "hnsw"}) {
    auto index = index::MakeVectorIndex(type, 8, la::Metric::kCosine);
    auto vectors = RandomUnitVectors(120, 8, 53);
    index->AddAll(vectors);
    const std::string path = TempPath(std::string("add_after_load_") + type);
    ASSERT_TRUE(SaveIndex(*index, path).ok()) << type;
    auto loaded = LoadIndex(path);
    ASSERT_TRUE(loaded.ok()) << type << ": " << loaded.status().ToString();
    la::Vec probe = RandomUnitVectors(1, 8, 54)[0];
    loaded.value()->Add(probe);
    EXPECT_EQ(loaded.value()->size(), 121u) << type;
    // The probe itself must come back as the top hit (distance ~0).
    auto hits = loaded.value()->Search(probe, 1);
    ASSERT_EQ(hits.size(), 1u) << type;
    EXPECT_EQ(hits[0].id, 120u) << type;
    EXPECT_NEAR(hits[0].distance, 0.0f, 1e-5f) << type;
  }
}

// --- rejection of bad files ------------------------------------------------

TEST(IndexIoTest, MissingFileIsIoError) {
  auto loaded = LoadIndex(TempPath("does_not_exist.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.idx");
  WriteFileBytes(path, "this is definitely not a DUST index file");
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, EmptyFileRejected) {
  const std::string path = TempPath("empty.idx");
  WriteFileBytes(path, "");
  EXPECT_FALSE(LoadIndex(path).ok());
}

class SavedFlatFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlatIndex flat(6, la::Metric::kCosine);
    flat.AddAll(RandomUnitVectors(50, 6, 23));
    path_ = TempPath("patched.idx");
    ASSERT_TRUE(SaveIndex(flat, path_).ok());
    bytes_ = ReadFileBytes(path_);
    // header (8 magic + 4 version + 2 tags + 8 dim) + tombstone section (8)
    ASSERT_GT(bytes_.size(), 38u);
  }
  std::string path_;
  std::string bytes_;
};

TEST_F(SavedFlatFileTest, VersionMismatchRejected) {
  std::string patched = bytes_;
  patched[8] = 99;  // format version (u32 little-endian after the magic)
  WriteFileBytes(path_, patched);
  auto loaded = LoadIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(SavedFlatFileTest, UnknownTypeTagRejectedNotAborted) {
  std::string patched = bytes_;
  patched[12] = static_cast<char>(0xFF);  // index type tag
  WriteFileBytes(path_, patched);
  auto loaded = LoadIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SavedFlatFileTest, RetiredTagsRejectedWithRebuildHint) {
  // Tags 2, 3 and 4 belonged to removed index types. An old file carrying
  // any of them must fail with an IoError that names the type and says to
  // rebuild.
  const struct {
    uint8_t tag;
    const char* type;
  } kRetired[] = {{2, "ivf"}, {3, "lsh"}, {4, "sharded"}};
  for (const auto& retired : kRetired) {
    std::string patched = bytes_;
    patched[12] = static_cast<char>(retired.tag);  // index type tag
    WriteFileBytes(path_, patched);
    auto loaded = LoadIndex(path_);
    ASSERT_FALSE(loaded.ok()) << "tag " << int{retired.tag};
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find(retired.type), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("rebuild"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(SavedFlatFileTest, UnknownMetricTagRejected) {
  std::string patched = bytes_;
  patched[13] = static_cast<char>(0x7F);  // metric tag
  WriteFileBytes(path_, patched);
  EXPECT_FALSE(LoadIndex(path_).ok());
}

TEST_F(SavedFlatFileTest, TruncatedFileRejected) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() / 2));
  auto loaded = LoadIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SavedFlatFileTest, OversizedTombstoneCountRejectedWithoutAllocation) {
  // Patch the v2 tombstone-list count (first u64 after the header) to a
  // huge value; the reader must reject it against the file size instead of
  // attempting the allocation.
  std::string patched = bytes_;
  for (size_t i = 0; i < 8; ++i) patched[22 + i] = static_cast<char>(0xFF);
  WriteFileBytes(path_, patched);
  auto loaded = LoadIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SavedFlatFileTest, OversizedCountRejectedWithoutHugeAllocation) {
  // Patch the vector-list count (first u64 of the flat payload, after the
  // 22-byte header + 8-byte empty tombstone section) to a huge value; same
  // bounds check, different field.
  std::string patched = bytes_;
  for (size_t i = 0; i < 8; ++i) patched[30 + i] = static_cast<char>(0xFF);
  WriteFileBytes(path_, patched);
  auto loaded = LoadIndex(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SavedFlatFileTest, HugeHeaderDimensionRejectedWithoutAllocation) {
  // The flat store is sized count * dim up front, so a corrupt header dim
  // must be rejected against the file size, not allocated or overflowed.
  for (uint64_t dim : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    std::string patched = bytes_;
    std::memcpy(&patched[14], &dim, sizeof(dim));  // header dim
    WriteFileBytes(path_, patched);
    auto loaded = LoadIndex(path_);
    ASSERT_FALSE(loaded.ok()) << dim;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
}

TEST_F(SavedFlatFileTest, NonFiniteStoredFloatsRejected) {
  // A NaN or infinite stored float makes that vector's distances NaN, and
  // then (distance, id) is no longer a strict order for ranking. Vector v's
  // floats start after the 30-byte header and empty tombstone section, the
  // u64 vector count, v earlier vectors (u64 length + 6 floats each) and
  // its own length.
  const auto float_offset = [](size_t v, size_t j) {
    return 30 + 8 + v * (8 + 6 * sizeof(float)) + 8 + j * sizeof(float);
  };
  const struct {
    size_t vector;
    size_t element;
    float value;
  } kPatches[] = {{0, 2, std::numeric_limits<float>::quiet_NaN()},
                  {7, 5, std::numeric_limits<float>::infinity()}};
  for (const auto& patch : kPatches) {
    std::string patched = bytes_;
    std::memcpy(&patched[float_offset(patch.vector, patch.element)],
                &patch.value, sizeof(float));
    WriteFileBytes(path_, patched);
    auto loaded = LoadIndex(path_);
    ASSERT_FALSE(loaded.ok()) << patch.value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find(path_), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(IndexIoTest, SavedFlatFileBytesArePinned) {
  // The flat payload layout is a compatibility contract; the hash was
  // recorded from the per-vector store that preceded the contiguous one.
  // The values are exact binary fractions, so the bytes are the same on
  // every SIMD backend. Tombstones and a load-then-save round trip are
  // covered.
  FlatIndex flat(5, la::Metric::kCosine);
  std::vector<la::Vec> vectors;
  for (int i = 0; i < 9; ++i) {
    la::Vec v(5);
    for (int j = 0; j < 5; ++j) v[j] = static_cast<float>(i * 5 + j - 20) / 8;
    vectors.push_back(v);
  }
  flat.Add(vectors[0]);
  flat.AddAll({vectors.begin() + 1, vectors.end()});
  ASSERT_EQ(flat.RemoveAll({2, 7}), 2u);
  const std::string path = TempPath("pinned_flat.idx");
  ASSERT_TRUE(SaveIndex(flat, path).ok());
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 306u);
  EXPECT_EQ(text::HashString(bytes), 0x87e5c3bf302b96ecULL);
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string resaved_path = TempPath("pinned_flat_resaved.idx");
  ASSERT_TRUE(SaveIndex(*loaded.value(), resaved_path).ok());
  EXPECT_EQ(ReadFileBytes(resaved_path), bytes);
}

TEST(IndexIoTest, ZeroDimensionHeaderRejected) {
  // dim 0 would disable every per-vector dimension check downstream and let
  // ragged vectors reach the distance kernels' DUST_CHECK at query time.
  const std::string path = TempPath("zero_dim.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(kIndexFormatVersion);
  writer.WriteU8(0);   // flat
  writer.WriteU8(0);   // cosine
  writer.WriteU64(0);  // dim = 0
  writer.WriteU64(0);  // no vectors
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, HnswUnderReportedLayersRejectedNotSearched) {
  // A node claiming fewer layers than the descent needs would make Search
  // index past its adjacency vector; the loader must reject the file.
  const std::string path = TempPath("hnsw_layers.idx");
  IndexWriter writer(path);
  writer.WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer.WriteU32(kIndexFormatVersion);
  writer.WriteU8(1);   // hnsw
  writer.WriteU8(0);   // cosine
  writer.WriteU64(2);  // dim
  writer.WriteIds({});  // v2 tombstone section
  writer.WriteU64(16);   // M
  writer.WriteU64(200);  // ef_construction
  writer.WriteU64(128);  // ef_search
  writer.WriteU64(42);   // seed
  writer.WriteU64(1);    // one vector
  writer.WriteVec({1.0f, 0.0f});
  writer.WriteU32(0);  // entry point
  writer.WriteI64(3);  // max level claims 4 layers...
  writer.WriteU32(1);  // ...but the entry node only has 1
  writer.WriteU32(0);  // with degree 0
  ASSERT_TRUE(writer.Close().ok());
  auto loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IndexIoTest, TrailingBytesRejected) {
  // Bytes after the index mean the file was concatenated with something or
  // partly overwritten by a shorter one. Every section before them checks
  // out, so only the end check can catch it.
  for (const char* type : {"flat", "hnsw"}) {
    auto index = index::MakeVectorIndex(type, 8, la::Metric::kCosine);
    index->AddAll(RandomUnitVectors(40, 8, 61));
    const std::string path = TempPath(std::string("trailing_") + type);
    ASSERT_TRUE(SaveIndex(*index, path).ok()) << type;
    const std::string bytes = ReadFileBytes(path);
    WriteFileBytes(path, bytes + std::string(7, '\0'));
    auto loaded = LoadIndex(path);
    ASSERT_FALSE(loaded.ok()) << type;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << type;
    EXPECT_NE(loaded.status().message().find("7 extra bytes"),
              std::string::npos)
        << loaded.status().ToString();
    WriteFileBytes(path, bytes);
    EXPECT_TRUE(LoadIndex(path).ok()) << type;
  }
}

TEST(IndexIoTest, SaveToUnwritablePathIsIoError) {
  FlatIndex flat(4, la::Metric::kCosine);
  flat.Add({1, 0, 0, 0});
  Status status = SaveIndex(flat, TempPath("no_such_dir/sub/index.idx"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// --- seeded corruption of the index and snapshot files dust_cli loads ------

/// `bytes` cut at a seeded offset, with the byte there changed, or with 1-16
/// seeded bytes appended. Half the offsets fall in the first 64 bytes, where
/// the headers and counts sit.
std::string Corrupt(const std::string& bytes, dust::Rng* rng) {
  size_t span = bytes.size();
  if (rng->NextBelow(2) == 0) span = std::min<size_t>(span, 64);
  const size_t offset = rng->NextBelow(span);
  std::string out = bytes;
  switch (rng->NextBelow(3)) {
    case 0:
      out.resize(offset);
      break;
    case 1:
      out[offset] = static_cast<char>(out[offset] ^ (1 + rng->NextBelow(255)));
      break;
    default:
      for (uint64_t n = 1 + rng->NextBelow(16); n > 0; --n) {
        out.push_back(static_cast<char>(rng->NextBelow(256)));
      }
  }
  return out;
}

// The files of a small lake: a flat and an hnsw tuple index
// (--save-tuple-index), a flat snapshot and an --index hnsw --shortlist 4
// one (--save-index), and a DustModel file. Each is corrupted at seeded
// offsets. Every load must return ok or a Status, and every load that
// succeeds must answer a query, or encode a tuple, without aborting.
TEST(CorruptFileTest, EveryLoadReturnsOkOrStatusAndServes) {
  datagen::TusConfig tus;
  tus.num_queries = 2;
  tus.unionable_per_query = 3;
  tus.distractors_per_base = 1;
  tus.base_rows = 20;
  tus.seed = 5;
  const datagen::Benchmark benchmark = datagen::GenerateTus(tus);
  std::vector<const table::Table*> lake;
  for (const auto& t : benchmark.lake) lake.push_back(&t.data);
  const table::Table& query = benchmark.queries[0].data;
  embed::EmbedderConfig embedder;
  embedder.dim = 32;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, embedder)));

  std::vector<std::string> tuple_indexes;
  for (const char* type : {"flat", "hnsw"}) {
    search::TupleSearchConfig config;
    config.index_type = type;
    search::TupleSearch search(encoder, config);
    search.IndexLake(lake);
    const std::string path = TempPath(std::string("clean_") + type + ".tidx");
    ASSERT_TRUE(SaveIndex(*search.lake_index(), path).ok()) << type;
    tuple_indexes.push_back(ReadFileBytes(path));
  }
  core::PipelineConfig flat;
  flat.num_tables = 4;
  core::PipelineConfig hnsw = flat;
  hnsw.search_index = "hnsw";
  hnsw.search_shortlist = 4;
  std::vector<std::pair<core::PipelineConfig, std::string>> snapshots;
  for (const core::PipelineConfig& config : {flat, hnsw}) {
    core::DustPipeline pipeline(config, encoder);
    pipeline.IndexLake(lake);
    const std::string path = TempPath("clean_" + config.search_index + ".snap");
    ASSERT_TRUE(pipeline.SaveSnapshot(path).ok()) << config.search_index;
    snapshots.emplace_back(config, ReadFileBytes(path));
  }

  nn::DustModelConfig model_config;
  model_config.feature_dim = 64;
  model_config.hidden_dim = 8;
  model_config.embedding_dim = 4;
  const std::string model_path = TempPath("clean_model.bin");
  ASSERT_TRUE(nn::DustModel(model_config).SaveToFile(model_path).ok());
  const std::string model_bytes = ReadFileBytes(model_path);

  constexpr int kTrials = 200;
  const std::string path = TempPath("corrupt.bin");
  const la::Vec probe = RandomUnitVectors(1, embedder.dim, 88)[0];
  dust::Rng rng(2025);
  size_t loaded = 0;
  size_t rejected = 0;
  for (const std::string& bytes : tuple_indexes) {
    for (int trial = 0; trial < kTrials; ++trial) {
      WriteFileBytes(path, Corrupt(bytes, &rng));
      auto index = LoadIndex(path);
      if (!index.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      EXPECT_LE(index.value()->Search(probe, 5).size(), 5u);
    }
  }
  for (const auto& [config, bytes] : snapshots) {
    for (int trial = 0; trial < kTrials; ++trial) {
      WriteFileBytes(path, Corrupt(bytes, &rng));
      core::DustPipeline pipeline(config, encoder);
      if (!pipeline.LoadSnapshot(path, lake).ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      auto result = pipeline.Run(query, 5);
      if (result.ok()) EXPECT_LE(result.value().output.num_rows(), 5u);
    }
  }
  for (int trial = 0; trial < kTrials; ++trial) {
    WriteFileBytes(path, Corrupt(model_bytes, &rng));
    nn::DustModel model(model_config);
    if (!model.LoadFromFile(path).ok()) {
      ++rejected;
      continue;
    }
    ++loaded;
    EXPECT_EQ(model.EncodeSerialized("[CLS] park Hyde Park [SEP]").size(),
              model_config.embedding_dim);
  }
  // Both outcomes occur, so the loop reaches past the header checks.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- writer/reader primitives ----------------------------------------------

TEST(IndexIoTest, WriterReaderPrimitivesRoundTrip) {
  const std::string path = TempPath("primitives.bin");
  IndexWriter writer(path);
  writer.WriteU8(7);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(uint64_t{1} << 40);
  writer.WriteI64(-12345);
  writer.WriteVec({1.0f, -2.0f});
  writer.WriteIds({3, 1, 4});
  ASSERT_TRUE(writer.Close().ok());

  IndexReader reader(path);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  la::Vec v;
  std::vector<size_t> ids;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadVec(&v, 2).ok());
  ASSERT_TRUE(reader.ReadIds(&ids).ok());
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, uint64_t{1} << 40);
  EXPECT_EQ(i64, -12345);
  EXPECT_EQ(v, (la::Vec{1.0f, -2.0f}));
  EXPECT_EQ(ids, (std::vector<size_t>{3, 1, 4}));
  EXPECT_EQ(reader.remaining(), 0u);
  // Reading past the end is an error, not UB.
  EXPECT_FALSE(reader.ReadU8(&u8).ok());
}

TEST(IndexIoTest, ReadVecRejectsDimensionMismatch) {
  const std::string path = TempPath("dim_mismatch.bin");
  IndexWriter writer(path);
  writer.WriteVec({1.0f, 2.0f, 3.0f});
  ASSERT_TRUE(writer.Close().ok());
  IndexReader reader(path);
  la::Vec v;
  EXPECT_FALSE(reader.ReadVec(&v, 2).ok());
}

TEST(IndexIoTest, ReadVecRejectsNonFiniteFloats) {
  const std::string path = TempPath("non_finite.bin");
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    IndexWriter writer(path);
    writer.WriteVec({1.0f, bad, 3.0f});
    ASSERT_TRUE(writer.Close().ok());
    IndexReader reader(path);
    la::Vec v;
    Status status = reader.ReadVec(&v, 3);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find(path), std::string::npos)
        << status.ToString();
  }
}

TEST(IndexIoTest, TypeTagsAreStable) {
  // On-disk tags are a compatibility contract: a change here breaks every
  // previously-written file.
  uint8_t tag = 0;
  ASSERT_TRUE(IndexTypeTag("flat", &tag));
  EXPECT_EQ(tag, 0);
  ASSERT_TRUE(IndexTypeTag("hnsw", &tag));
  EXPECT_EQ(tag, 1);
  EXPECT_FALSE(IndexTypeTag("faiss", &tag));
  // The ivf, lsh and sharded types were removed; their tags 2, 3 and 4 are
  // retired, never reused.
  EXPECT_FALSE(IndexTypeTag("ivf", &tag));
  EXPECT_FALSE(IndexTypeTag("lsh", &tag));
  EXPECT_FALSE(IndexTypeTag("sharded", &tag));
  std::string type;
  Status retired = IndexTypeFromTag(2, &type);
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.code(), StatusCode::kIoError);
  EXPECT_FALSE(IndexTypeFromTag(200, &type).ok());
}

}  // namespace
}  // namespace dust::io

#include "io/index_io.h"

#include <cmath>
#include <cstring>

namespace dust::io {

namespace {

// Hard cap on any single element count read from disk. Counts are also
// bounds-checked against the file size; this is belt-and-suspenders against
// small-element overflows.
constexpr uint64_t kMaxCount = uint64_t{1} << 40;

}  // namespace

// --- IndexWriter -----------------------------------------------------------

IndexWriter::IndexWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    status_ = Status::IoError("cannot open for writing: " + path);
  }
}

void IndexWriter::WriteRaw(const void* data, size_t n) {
  if (!status_.ok()) return;  // latched failure: later writes are no-ops
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out_) status_ = Status::IoError("write failed: " + path_);
}

void IndexWriter::WriteVec(const la::Vec& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(float));
}

void IndexWriter::WriteVecs(const std::vector<la::Vec>& vectors) {
  WriteU64(vectors.size());
  for (const la::Vec& v : vectors) WriteVec(v);
}

void IndexWriter::WriteVecs(const float* rows, size_t count, size_t dim) {
  WriteU64(count);
  for (size_t i = 0; i < count; ++i) {
    WriteU64(dim);
    WriteRaw(rows + i * dim, dim * sizeof(float));
  }
}

void IndexWriter::WriteIds(const std::vector<size_t>& ids) {
  WriteU64(ids.size());
  for (size_t id : ids) WriteU64(id);
}

Status IndexWriter::Close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_ && status_.ok()) {
      status_ = Status::IoError("flush failed: " + path_);
    }
    out_.close();
  }
  return status_;
}

// --- IndexReader -----------------------------------------------------------

IndexReader::IndexReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary | std::ios::ate) {
  if (!in_) {
    status_ = Status::IoError("cannot open for reading: " + path);
    return;
  }
  remaining_ = static_cast<uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);
}

Status IndexReader::ReadRaw(void* data, size_t n) {
  DUST_RETURN_IF_ERROR(status_);
  if (n > remaining_) {
    status_ = Status::IoError("unexpected end of file: " + path_);
    return status_;
  }
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!in_) {
    status_ = Status::IoError("read failed: " + path_);
    return status_;
  }
  remaining_ -= n;
  return Status::Ok();
}

Status IndexReader::ReadCount(size_t elem_size, uint64_t* count) {
  DUST_RETURN_IF_ERROR(ReadU64(count));
  // A corrupt length field must not drive a huge allocation: the elements
  // it promises have to physically fit in the rest of the file.
  if (*count > kMaxCount ||
      (elem_size > 0 && *count > remaining_ / elem_size)) {
    status_ = Status::IoError("corrupt element count in " + path_);
    return status_;
  }
  return Status::Ok();
}

Status IndexReader::ExpectMagic(const char magic[8], const std::string& what) {
  char buf[8] = {0};
  DUST_RETURN_IF_ERROR(ReadRaw(buf, sizeof(buf)));
  if (std::memcmp(buf, magic, sizeof(buf)) != 0) {
    status_ = Status::IoError("not a " + what + " file: " + path_);
    return status_;
  }
  return Status::Ok();
}

Status IndexReader::ExpectEnd() {
  DUST_RETURN_IF_ERROR(status_);
  if (remaining_ != 0) {
    status_ = Status::IoError(std::to_string(remaining_) +
                              " extra bytes after the end of " + path_);
    return status_;
  }
  return Status::Ok();
}

Status IndexReader::ReadVecLength(size_t dim, uint64_t* len) {
  DUST_RETURN_IF_ERROR(ReadCount(sizeof(float), len));
  if (dim != 0 && *len != dim) {
    status_ = Status::IoError("vector dimension mismatch in " + path_);
    return status_;
  }
  return Status::Ok();
}

Status IndexReader::ReadFiniteFloats(float* data, size_t n) {
  if (n == 0) return Status::Ok();
  DUST_RETURN_IF_ERROR(ReadRaw(data, n * sizeof(float)));
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) {
      status_ = Status::IoError("non-finite value in a stored vector: " +
                                path_);
      return status_;
    }
  }
  return Status::Ok();
}

Status IndexReader::ReadVec(la::Vec* v, size_t dim) {
  uint64_t len = 0;
  DUST_RETURN_IF_ERROR(ReadVecLength(dim, &len));
  v->resize(len);
  return ReadFiniteFloats(v->data(), len);
}

Status IndexReader::ReadVecs(std::vector<la::Vec>* vectors, size_t dim) {
  uint64_t count = 0;
  // Each vector is at least its own u64 length prefix.
  DUST_RETURN_IF_ERROR(ReadCount(sizeof(uint64_t), &count));
  vectors->clear();
  vectors->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    la::Vec v;
    DUST_RETURN_IF_ERROR(ReadVec(&v, dim));
    vectors->push_back(std::move(v));
  }
  return Status::Ok();
}

Status IndexReader::ReadRows(std::vector<float>* rows, size_t dim) {
  DUST_CHECK(dim > 0);
  uint64_t count = 0;
  DUST_RETURN_IF_ERROR(ReadCount(sizeof(uint64_t), &count));
  // Each vector is its u64 length prefix plus dim floats, and all of them
  // must fit in the rest of the file before the buffer is sized; the dim
  // test comes first so a corrupt header dim cannot overflow the product.
  if (count > 0 &&
      (dim > remaining_ / sizeof(float) ||
       count > remaining_ / (sizeof(uint64_t) + dim * sizeof(float)))) {
    status_ = Status::IoError("corrupt element count in " + path_);
    return status_;
  }
  rows->resize(count * dim);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    DUST_RETURN_IF_ERROR(ReadVecLength(dim, &len));
    DUST_RETURN_IF_ERROR(ReadFiniteFloats(rows->data() + i * dim, dim));
  }
  return Status::Ok();
}

Status IndexReader::ReadIds(std::vector<size_t>* ids) {
  uint64_t count = 0;
  DUST_RETURN_IF_ERROR(ReadCount(sizeof(uint64_t), &count));
  ids->clear();
  ids->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    DUST_RETURN_IF_ERROR(ReadU64(&id));
    ids->push_back(static_cast<size_t>(id));
  }
  return Status::Ok();
}

// --- tags ------------------------------------------------------------------

bool IndexTypeTag(const std::string& type, uint8_t* tag) {
  if (type == "flat") {
    *tag = 0;
  } else if (type == "hnsw") {
    *tag = 1;
  } else {
    return false;
  }
  return true;
}

Status IndexTypeFromTag(uint8_t tag, std::string* type) {
  switch (tag) {
    case 0:
      *type = "flat";
      return Status::Ok();
    case 1:
      *type = "hnsw";
      return Status::Ok();
    case 2:
      return Status::IoError(
          "index type tag 2 (ivf) was removed; rebuild the index as flat or "
          "hnsw");
    case 3:
      return Status::IoError(
          "index type tag 3 (lsh) was removed; rebuild the index as flat or "
          "hnsw");
    case 4:
      return Status::IoError(
          "index type tag 4 (sharded) was removed; rebuild the index as flat "
          "or hnsw");
    default:
      return Status::IoError("unknown index type tag " +
                             std::to_string(static_cast<int>(tag)));
  }
}

uint8_t MetricTag(la::Metric metric) { return static_cast<uint8_t>(metric); }

Status MetricFromTag(uint8_t tag, la::Metric* metric) {
  switch (tag) {
    case 0:
      *metric = la::Metric::kCosine;
      return Status::Ok();
    case 1:
      *metric = la::Metric::kEuclidean;
      return Status::Ok();
    case 2:
      *metric = la::Metric::kManhattan;
      return Status::Ok();
    default:
      return Status::IoError("unknown metric tag " +
                             std::to_string(static_cast<int>(tag)));
  }
}

// --- index save/load -------------------------------------------------------

Status WriteIndex(const index::VectorIndex& index, IndexWriter* writer) {
  uint8_t tag = 0;
  if (!IndexTypeTag(index.type_tag(), &tag)) {
    return Status::Internal("index type has no on-disk tag: " +
                            index.type_tag());
  }
  writer->WriteBytes(kIndexMagic, sizeof(kIndexMagic));
  writer->WriteU32(kIndexFormatVersion);
  writer->WriteU8(tag);
  writer->WriteU8(MetricTag(index.metric()));
  writer->WriteU64(index.dim());
  // Format v2: the tombstone id list sits between the header and the type
  // payload.
  writer->WriteIds(index.Tombstones());
  DUST_RETURN_IF_ERROR(writer->status());
  return index.SavePayload(writer);
}

Result<std::unique_ptr<index::VectorIndex>> ReadIndex(IndexReader* reader) {
  DUST_RETURN_IF_ERROR(reader->ExpectMagic(kIndexMagic, "DUST index"));
  uint32_t version = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version < kMinIndexFormatVersion || version > kIndexFormatVersion) {
    return Status::IoError(
        "unsupported index format version " + std::to_string(version) +
        " (expected " + std::to_string(kMinIndexFormatVersion) + ".." +
        std::to_string(kIndexFormatVersion) + ")");
  }
  uint8_t type_tag = 0;
  uint8_t metric_tag = 0;
  uint64_t dim = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&type_tag));
  DUST_RETURN_IF_ERROR(reader->ReadU8(&metric_tag));
  DUST_RETURN_IF_ERROR(reader->ReadU64(&dim));
  if (dim == 0) {
    // dim 0 would disable ReadVec's per-vector dimension checks ("accept
    // any length"), letting ragged vectors through to abort in the distance
    // kernels at query time.
    return Status::IoError("index header has dimension 0");
  }
  std::string type;
  DUST_RETURN_IF_ERROR(IndexTypeFromTag(type_tag, &type));
  la::Metric metric = la::Metric::kCosine;
  DUST_RETURN_IF_ERROR(MetricFromTag(metric_tag, &metric));
  // Format v2 tombstone section. ReadIds bounds-checks the count against
  // the remaining bytes before allocating, so an oversized or truncated
  // tombstone list is rejected without a huge allocation; v1 files simply
  // have no section (empty tombstone set).
  std::vector<size_t> tombstones;
  if (version >= 2) {
    DUST_RETURN_IF_ERROR(reader->ReadIds(&tombstones));
  }
  std::unique_ptr<index::VectorIndex> index =
      index::MakeVectorIndex(type, static_cast<size_t>(dim), metric);
  DUST_RETURN_IF_ERROR(index->LoadPayload(reader));
  // Applied after the payload so the ids can be validated against the
  // loaded size; out-of-range or duplicate ids reject the file.
  DUST_RETURN_IF_ERROR(index->ApplyTombstones(tombstones));
  return index;
}

Status SaveIndex(const index::VectorIndex& index, const std::string& path) {
  IndexWriter writer(path);
  DUST_RETURN_IF_ERROR(writer.status());
  DUST_RETURN_IF_ERROR(WriteIndex(index, &writer));
  return writer.Close();
}

Result<std::unique_ptr<index::VectorIndex>> LoadIndex(const std::string& path) {
  IndexReader reader(path);
  DUST_RETURN_IF_ERROR(reader.status());
  Result<std::unique_ptr<index::VectorIndex>> index = ReadIndex(&reader);
  DUST_RETURN_IF_ERROR(index.status());
  DUST_RETURN_IF_ERROR(reader.ExpectEnd());
  return index;
}

}  // namespace dust::io

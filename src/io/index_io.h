// Versioned binary persistence for vector indexes and pipeline snapshots.
//
// The ROADMAP north star is a lake that is indexed once offline and served
// by many processes online (Starmie/EasyTUS-style offline/online split).
// This module defines the on-disk format and the low-level writer/reader
// both layers share:
//
//   index file     := header payload
//   header         := magic("DUSTIDX\0") version:u32 type:u8 metric:u8
//                     dim:u64
//   payload        := type-specific (see each VectorIndex::SavePayload)
//
// Pipeline snapshots (core/pipeline.h) embed an index file after their own
// header using the same writer. All integers and floats are written in the
// host's native byte order (little-endian on every supported target); files
// are not portable across endianness, only across processes/machines of the
// same family. Readers validate magic, version, type, metric, and every
// element count against the bytes actually remaining in the file, so a
// corrupt or truncated file yields Status::IoError instead of an abort or
// an unbounded allocation.
#ifndef DUST_IO_INDEX_IO_H_
#define DUST_IO_INDEX_IO_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "index/vector_index.h"
#include "la/distance.h"
#include "la/vector_ops.h"
#include "util/status.h"

namespace dust::io {

/// Current index file format version. Bump when the header or any payload
/// layout changes. Version 2 inserts a tombstone id list between the
/// common header and the type payload; version-1 files (no tombstone
/// section) still load, with an empty tombstone set. Readers reject any
/// other version.
inline constexpr uint32_t kIndexFormatVersion = 2;

/// Oldest index file format version ReadIndex still accepts.
inline constexpr uint32_t kMinIndexFormatVersion = 1;

/// 8-byte magic at the start of a standalone index file.
inline constexpr char kIndexMagic[8] = {'D', 'U', 'S', 'T',
                                        'I', 'D', 'X', '\0'};

/// 8-byte magic at the start of a pipeline snapshot file.
inline constexpr char kSnapshotMagic[8] = {'D', 'U', 'S', 'T',
                                           'S', 'N', 'A', 'P'};

/// Buffered binary writer. Write calls never throw; the first stream
/// failure latches into status() so payload code can write unconditionally
/// and check once at the end (RocksDB-style).
class IndexWriter {
 public:
  explicit IndexWriter(const std::string& path);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void WriteU8(uint8_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteBytes(const char* data, size_t n) { WriteRaw(data, n); }

  /// Length-prefixed (u64) UTF-8 string.
  void WriteString(const std::string& s);
  /// Length-prefixed (u64) float vector.
  void WriteVec(const la::Vec& v);
  /// Count-prefixed (u64) list of vectors, each length-prefixed.
  void WriteVecs(const std::vector<la::Vec>& vectors);
  /// Count-prefixed (u64) list of u64 ids.
  void WriteIds(const std::vector<size_t>& ids);

  /// Flushes and closes the stream; returns the final status.
  Status Close();

 private:
  void WriteRaw(const void* data, size_t n);

  std::string path_;
  std::ofstream out_;
  Status status_;
};

/// Binary reader with bounds-checked counts. Every Read returns a Status;
/// use DUST_RETURN_IF_ERROR to propagate. Counts read via ReadCount are
/// validated against the bytes remaining in the file so corrupt length
/// fields cannot trigger multi-gigabyte allocations.
class IndexReader {
 public:
  explicit IndexReader(const std::string& path);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Bytes not yet consumed.
  uint64_t remaining() const { return remaining_; }

  Status ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  Status ReadFloat(float* v) { return ReadRaw(v, sizeof(*v)); }

  /// Reads a u64 element count and rejects it unless count * elem_size
  /// bytes are still available in the file.
  Status ReadCount(size_t elem_size, uint64_t* count);

  /// Expects the exact 8-byte magic; IoError mentioning `what` otherwise.
  Status ExpectMagic(const char magic[8], const std::string& what);

  Status ReadString(std::string* s);
  /// Reads a length-prefixed vector and checks it has exactly `dim`
  /// elements (pass 0 to accept any length).
  Status ReadVec(la::Vec* v, size_t dim);
  Status ReadVecs(std::vector<la::Vec>* vectors, size_t dim);
  Status ReadIds(std::vector<size_t>* ids);

 private:
  Status ReadRaw(void* data, size_t n);

  std::string path_;
  std::ifstream in_;
  uint64_t remaining_ = 0;
  Status status_;
};

/// Stable on-disk tag for an index type name ("flat" 0, "hnsw" 1, "ivf" 2);
/// never reorder existing values. Tags 3 and 4 belonged to removed index
/// types and are never reused. Returns false for unknown names.
bool IndexTypeTag(const std::string& type, uint8_t* tag);
/// Inverse of IndexTypeTag; IoError for unknown tags (corrupt files must
/// surface as errors, not aborts) and for the retired tags 3 and 4, whose
/// messages say the index must be rebuilt.
Status IndexTypeFromTag(uint8_t tag, std::string* type);

/// Metric <-> on-disk tag; same stability rules as the type tag.
uint8_t MetricTag(la::Metric metric);
Status MetricFromTag(uint8_t tag, la::Metric* metric);

/// Writes `index` (header + payload) into an already-open writer, e.g. in
/// the middle of a snapshot file.
Status WriteIndex(const index::VectorIndex& index, IndexWriter* writer);

/// Reads one index (header + payload) from an already-open reader.
Result<std::unique_ptr<index::VectorIndex>> ReadIndex(IndexReader* reader);

/// Saves `index` as a standalone file at `path`. Equivalent to
/// index.Save(path).
Status SaveIndex(const index::VectorIndex& index, const std::string& path);

/// Loads a standalone index file. The concrete type, metric, dim, config,
/// and contents are restored from the file; Search/SearchBatch on the
/// result are bit-identical to the saved index.
Result<std::unique_ptr<index::VectorIndex>> LoadIndex(const std::string& path);

}  // namespace dust::io

#endif  // DUST_IO_INDEX_IO_H_

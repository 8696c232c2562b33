#include "index/flat_index.h"

#include <algorithm>
#include <cmath>

#include "io/index_io.h"
#include "la/simd/kernels.h"
#include "serve/executor.h"
#include "util/status.h"

namespace dust::index {

void FlatIndex::Add(const la::Vec& v) {
  DUST_CHECK(v.size() == dim_);
  data_.insert(data_.end(), v.begin(), v.end());
  norms_.push_back(la::Norm(v));
}

bool FlatIndex::GetVector(size_t id, la::Vec* out) const {
  if (id >= size()) return false;
  const float* row = data_.data() + id * dim_;
  out->assign(row, row + dim_);
  return true;
}

std::vector<SearchHit> FlatIndex::Search(const la::Vec& query,
                                         size_t k) const {
  return std::move(Scan(&query, 1, k)[0]);
}

std::vector<std::vector<SearchHit>> FlatIndex::SearchBatch(
    const std::vector<la::Vec>& queries, size_t k) const {
  return Scan(queries.data(), queries.size(), k);
}

std::vector<std::vector<SearchHit>> FlatIndex::Scan(
    const la::Vec* queries, size_t rows, size_t k) const {
  std::vector<std::vector<SearchHit>> results(rows);
  const size_t keep = std::min(k, live_size());
  if (rows == 0 || keep == 0) return results;
  // The query norm DistanceToMany hoists, so cosine entries match it.
  std::vector<float> query_norms(rows);
  for (size_t r = 0; r < rows; ++r) {
    DUST_CHECK(queries[r].size() == dim_);
    query_norms[r] = la::Norm(queries[r]);
  }
  // Each group writes only its own rows' results, and scratch is per
  // task, so concurrent groups (and concurrent calls) share nothing mutable.
  const auto scan_group = [&](size_t g) {
    const size_t row_begin = g * kGroupRows;
    const size_t row_end = std::min(rows, row_begin + kGroupRows);
    for (size_t r = row_begin; r < row_end; ++r) results[r].reserve(keep);
    std::vector<float> distances(kBlockRows);
    for (size_t first = 0; first < size(); first += kBlockRows) {
      const size_t count = std::min(kBlockRows, size() - first);
      const float* block = data_.data() + first * dim_;
      for (size_t r = row_begin; r < row_end; ++r) {
        la::DistanceToRows(metric_, queries[r].data(), query_norms[r], block,
                           norms_.data() + first, count, dim_,
                           distances.data());
        OfferLiveHits(distances.data(), first, count, keep, &results[r]);
      }
    }
    for (size_t r = row_begin; r < row_end; ++r) {
      FinalizeHits(&results[r], keep);
    }
  };
  const size_t groups = (rows + kGroupRows - 1) / kGroupRows;
  serve::Executor& pool = serve::Executor::Current();
  pool.ParallelFor(groups, 1, [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) scan_group(g);
  });
  return results;
}

Status FlatIndex::SavePayload(io::IndexWriter* writer) const {
  writer->WriteVecs(data_.data(), size(), dim_);
  return writer->status();
}

Status FlatIndex::LoadPayload(io::IndexReader* reader) {
  DUST_RETURN_IF_ERROR(reader->ReadRows(&data_, dim_));
  // la::Norm of each row, as Add computes it.
  const la::simd::Kernels& ops = la::simd::Active();
  norms_.resize(data_.size() / dim_);
  for (size_t id = 0; id < norms_.size(); ++id) {
    norms_[id] = std::sqrt(ops.norm_squared(data_.data() + id * dim_, dim_));
  }
  return Status::Ok();
}

}  // namespace dust::index

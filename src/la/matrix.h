// Row-major dense matrix used by the NN layers and PCA.
#ifndef DUST_LA_MATRIX_H_
#define DUST_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "la/vector_ops.h"

namespace dust::la {

/// Minimal row-major float matrix.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// y = M x (x has cols() entries; result has rows()).
  Vec MatVec(const Vec& x) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace dust::la

#endif  // DUST_LA_MATRIX_H_

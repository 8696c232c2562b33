#include "la/matrix.h"

#include "util/status.h"

namespace dust::la {

Vec Matrix::MatVec(const Vec& x) const {
  DUST_CHECK(x.size() == cols_);
  Vec y(rows_, 0.0f);
  for (size_t r = 0; r < rows_; ++r) {
    const float* m = row(r);
    float s = 0.0f;
    for (size_t c = 0; c < cols_; ++c) s += m[c] * x[c];
    y[r] = s;
  }
  return y;
}

}  // namespace dust::la

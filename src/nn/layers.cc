#include "nn/layers.h"

#include <cmath>

#include "util/rng.h"
#include "util/status.h"

namespace dust::nn {

Linear::Linear(size_t in_dim, size_t out_dim, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_(in_dim, out_dim),
      b_(out_dim, 0.0f),
      dw_(in_dim, out_dim),
      db_(out_dim, 0.0f) {
  Rng rng(seed);
  float bound = std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  for (size_t r = 0; r < out_dim_; ++r) {
    for (size_t c = 0; c < in_dim_; ++c) {
      const float u = static_cast<float>(rng.NextDouble());
      w_.at(c, r) = bound * (2.0f * u - 1.0f);
    }
  }
}

la::Vec Linear::Forward(const la::Vec& x) const {
  DUST_CHECK(x.size() == in_dim_);
  // Outputs side by side: each still sums its terms in input order from 0.
  la::Vec y(out_dim_, 0.0f);
  float* out = y.data();
  for (size_t c = 0; c < in_dim_; ++c) {
    const float* w = w_.row(c);
    const float xc = x[c];
    for (size_t r = 0; r < out_dim_; ++r) out[r] += w[r] * xc;
  }
  la::AddInPlace(&y, b_);
  return y;
}

la::Vec Linear::ForwardSparse(const text::SparseVector& x) const {
  la::Vec y = b_;
  float* out = y.data();
  for (size_t k = 0; k < x.indices.size(); ++k) {
    DUST_CHECK(x.indices[k] < in_dim_);
    const float* w = w_.row(x.indices[k]);
    const float v = x.values[k];
    for (size_t r = 0; r < out_dim_; ++r) out[r] += w[r] * v;
  }
  return y;
}

// In the backward passes an output whose upstream gradient is zero adds no
// term, not even a signed zero, and dx sums its terms in output order:
// trained parameters depend on both, bit for bit.

la::Vec Linear::Backward(const la::Vec& x, const la::Vec& dy) {
  DUST_CHECK(x.size() == in_dim_ && dy.size() == out_dim_);
  for (size_t r = 0; r < out_dim_; ++r) {
    if (dy[r] != 0.0f) db_[r] += dy[r];
  }
  // dx = W^T dy, each entry summed over outputs in order.
  la::Vec dx(in_dim_, 0.0f);
  for (size_t c = 0; c < in_dim_; ++c) {
    const float* w = w_.row(c);
    float* dw = dw_.row(c);
    const float xc = x[c];
    float sum = 0.0f;
    for (size_t r = 0; r < out_dim_; ++r) {
      const float g = dy[r];
      if (g == 0.0f) continue;
      dw[r] += g * xc;
      sum += w[r] * g;
    }
    dx[c] = sum;
  }
  return dx;
}

void Linear::BackwardSparse(const text::SparseVector& x, const la::Vec& dy) {
  DUST_CHECK(dy.size() == out_dim_);
  for (size_t r = 0; r < out_dim_; ++r) {
    if (dy[r] != 0.0f) db_[r] += dy[r];
  }
  for (size_t k = 0; k < x.indices.size(); ++k) {
    float* dw = dw_.row(x.indices[k]);
    const float v = x.values[k];
    for (size_t r = 0; r < out_dim_; ++r) {
      const float g = dy[r];
      if (g != 0.0f) dw[r] += g * v;
    }
  }
}

void Linear::ZeroGrad() {
  std::fill(dw_.data().begin(), dw_.data().end(), 0.0f);
  std::fill(db_.begin(), db_.end(), 0.0f);
}

void Linear::AppendParams(std::vector<float>* out) const {
  for (size_t r = 0; r < out_dim_; ++r) {
    for (size_t c = 0; c < in_dim_; ++c) out->push_back(w_.at(c, r));
  }
  out->insert(out->end(), b_.begin(), b_.end());
}

void Linear::ReadParams(const float* params) {
  for (size_t r = 0; r < out_dim_; ++r) {
    for (size_t c = 0; c < in_dim_; ++c) w_.at(c, r) = *params++;
  }
  std::copy(params, params + out_dim_, b_.begin());
}

la::Vec TanhForward(const la::Vec& x) {
  la::Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
  return y;
}

la::Vec TanhBackward(const la::Vec& y, const la::Vec& dy) {
  DUST_CHECK(y.size() == dy.size());
  la::Vec dx(y.size());
  for (size_t i = 0; i < y.size(); ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return dx;
}

}  // namespace dust::nn

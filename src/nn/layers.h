// Neural network layers with explicit forward/backward passes.
//
// The DUST fine-tuning architecture (Sec. 4, Fig. 3 bottom-right) puts two
// linear layers over a frozen feature extractor. The graph is small and
// fixed, so layers carry their own gradient buffers instead of a general
// autograd.
#ifndef DUST_NN_LAYERS_H_
#define DUST_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"
#include "text/hashing.h"

namespace dust::nn {

/// Fully connected layer: y = W x + b.
///
/// Storage order: W is kept once, feature-major (in_dim x out_dim, row c
/// holds input c's weight to every output), the order inference reads it:
/// ForwardSparse reads one contiguous row per active feature. The file
/// order is the conventional out_dim x in_dim one: the Xavier draw,
/// AppendParams and ReadParams use it, so saved models keep their bytes.
/// weights() and weight_grad() expose the storage order: weights().at(c, r)
/// is the weight from input c to output r.
class Linear {
 public:
  /// Xavier/Glorot-uniform initialization, deterministic in `seed`, drawn
  /// in file order.
  Linear(size_t in_dim, size_t out_dim, uint64_t seed);

  /// Dense forward. Each output sums W's column in input order from 0,
  /// then adds the bias — la::Matrix::MatVec's order, so its bits.
  la::Vec Forward(const la::Vec& x) const;

  /// Sparse forward (first layer; input features are hashed tokens): the
  /// bias plus each active feature's row in index order.
  la::Vec ForwardSparse(const text::SparseVector& x) const;

  /// Accumulates gradients for (W, b) given upstream grad dy and the input
  /// that produced it; returns dx (gradient w.r.t. the input).
  la::Vec Backward(const la::Vec& x, const la::Vec& dy);

  /// Sparse variant of Backward; does not return dx (features are frozen).
  void BackwardSparse(const text::SparseVector& x, const la::Vec& dy);

  void ZeroGrad();

  /// Appends W in file order (out_dim x in_dim), then b.
  void AppendParams(std::vector<float>* out) const;
  /// Reads num_params() floats in AppendParams' order.
  void ReadParams(const float* params);
  size_t num_params() const { return in_dim_ * out_dim_ + out_dim_; }

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  la::Matrix& weights() { return w_; }
  la::Vec& bias() { return b_; }
  la::Matrix& weight_grad() { return dw_; }
  la::Vec& bias_grad() { return db_; }
  const la::Matrix& weights() const { return w_; }
  const la::Vec& bias() const { return b_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  la::Matrix w_;   // in_dim x out_dim (feature-major)
  la::Vec b_;      // out_dim
  la::Matrix dw_;  // gradient accumulators, laid out like w_
  la::Vec db_;
};

/// tanh activation.
la::Vec TanhForward(const la::Vec& x);
/// dL/dx given dL/dy and y = tanh(x).
la::Vec TanhBackward(const la::Vec& y, const la::Vec& dy);

}  // namespace dust::nn

#endif  // DUST_NN_LAYERS_H_

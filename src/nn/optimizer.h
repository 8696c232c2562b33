// The fine-tuning optimizer, over flat parameter views.
#ifndef DUST_NN_OPTIMIZER_H_
#define DUST_NN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

namespace dust::nn {

/// A (parameter, gradient) pair registered with the optimizer. The spans
/// must stay valid for the optimizer's lifetime.
struct ParamView {
  float* param;
  const float* grad;
  size_t size;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f);
  /// Registers a parameter tensor; call once per tensor before stepping.
  void Register(ParamView view);
  /// Applies one update using the current gradient values.
  void Step();

 private:
  float lr_, beta1_, beta2_, eps_;
  size_t t_ = 0;
  std::vector<ParamView> views_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace dust::nn

#endif  // DUST_NN_OPTIMIZER_H_

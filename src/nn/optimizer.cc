#include "nn/optimizer.h"

#include <cmath>

namespace dust::nn {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::Register(ParamView view) {
  views_.push_back(view);
  m_.emplace_back(view.size, 0.0f);
  v_.emplace_back(view.size, 0.0f);
}

void Adam::Step() {
  ++t_;
  float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < views_.size(); ++i) {
    ParamView& view = views_[i];
    std::vector<float>& m = m_[i];
    std::vector<float>& v = v_[i];
    for (size_t j = 0; j < view.size; ++j) {
      float g = view.grad[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      float mhat = m[j] / bc1;
      float vhat = v[j] / bc2;
      view.param[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace dust::nn

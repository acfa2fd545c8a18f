#include "nn/optimizer.hpp"

#include <cmath>
#include <utility>

#include "common/ensure.hpp"

namespace cal::nn {

Adam::Adam(std::vector<Parameter> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  CAL_ENSURE(!params_.empty(), "optimizer bound to zero parameters");
  for (const auto& p : params_)
    CAL_ENSURE(p.var != nullptr && p.var->requires_grad(),
               "optimizer parameter " << p.name << " does not require grad");
  CAL_ENSURE(lr > 0.0F, "learning rate must be positive");
  CAL_ENSURE(beta1 >= 0.0F && beta1 < 1.0F, "beta1 out of [0,1)");
  CAL_ENSURE(beta2 >= 0.0F && beta2 < 1.0F, "beta2 out of [0,1)");
  for (const auto& p : params_) {
    m_.emplace_back(p.var->value().shape());
    v_.emplace_back(p.var->value().shape());
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) p.var->zero_grad();
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = params_[i].var->mutable_value();
    const Tensor& g = params_[i].var->grad();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t j = 0; j < w.size(); ++j) {
      const float grad = g[j] + weight_decay_ * w[j];
      m[j] = beta1_ * m[j] + (1.0F - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0F - beta2_) * grad * grad;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace cal::nn

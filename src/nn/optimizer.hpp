// The optimiser over Module parameters.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace cal::nn {

/// Adam (Kingma & Ba) with bias correction and decoupled weight decay;
/// bound to a fixed parameter list at construction.
class Adam {
 public:
  Adam(std::vector<Parameter> params, float lr, float beta1 = 0.9F,
       float beta2 = 0.999F, float eps = 1e-8F, float weight_decay = 0.0F);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Apply one update from the accumulated gradients.
  void step();

  /// Zero all bound parameter gradients.
  void zero_grad();

  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

 private:
  std::vector<Parameter> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace cal::nn

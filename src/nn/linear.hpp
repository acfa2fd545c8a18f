// Fully-connected layer.
#pragma once

#include "nn/module.hpp"

namespace cal::nn {

/// y = x W + b with W: (in x out), b: (out).
class Linear : public Module {
 public:
  /// Xavier-uniform initialised weights; zero bias.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear");

  autograd::Var forward(const autograd::Var& x) override;
  std::vector<Parameter> parameters() override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  autograd::Var weight() { return w_; }
  autograd::Var bias() { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  std::string name_;
  autograd::Var w_;
  autograd::Var b_;
};

}  // namespace cal::nn

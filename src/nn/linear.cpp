#include "nn/linear.hpp"

#include "common/ensure.hpp"
#include "nn/init.hpp"

namespace cal::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name)
    : in_(in_features), out_(out_features), name_(std::move(name)) {
  CAL_ENSURE(in_ > 0 && out_ > 0, "Linear dims must be positive");
  w_ = autograd::make_leaf(xavier_uniform(in_, out_, rng), true);
  b_ = autograd::make_leaf(Tensor({out_}), true);
}

autograd::Var Linear::forward(const autograd::Var& x) {
  CAL_ENSURE(x->value().rank() == 2 && x->value().cols() == in_,
             name_ << ": expected input (*, " << in_ << "), got "
                   << x->value().shape_str());
  return autograd::add_rowwise(autograd::matmul(x, w_), b_);
}

std::vector<Parameter> Linear::parameters() {
  return {{name_ + ".weight", w_}, {name_ + ".bias", b_}};
}

}  // namespace cal::nn

#include "nn/prototype_attention.hpp"

#include "autograd/ops.hpp"
#include "common/ensure.hpp"

namespace cal::nn {

PrototypeAttentionHead::PrototypeAttentionHead(std::size_t in_features,
                                               std::size_t head_dim,
                                               std::size_t num_prototypes,
                                               Rng& rng, std::string name)
    : name_(std::move(name)) {
  CAL_ENSURE(head_dim > 0 && num_prototypes > 0,
             "attention head dims must be positive");
  w_q_ = std::make_unique<Linear>(in_features, head_dim, rng, name_ + ".wq");
  proto_k_ = autograd::make_leaf(
      Tensor::randn({num_prototypes, head_dim}, rng, 0.5F), true);
  proto_v_ = autograd::make_leaf(
      Tensor::randn({num_prototypes, head_dim}, rng, 0.5F), true);
}

autograd::Var PrototypeAttentionHead::forward(const autograd::Var& x) {
  auto q = w_q_->forward(x);
  return autograd::scaled_dot_product_attention(q, proto_k_, proto_v_);
}

std::vector<Parameter> PrototypeAttentionHead::parameters() {
  auto params = w_q_->parameters();
  params.push_back({name_ + ".proto_k", proto_k_});
  params.push_back({name_ + ".proto_v", proto_v_});
  return params;
}

MultiHeadPrototypeAttention::MultiHeadPrototypeAttention(
    std::size_t in_features, std::size_t head_dim, std::size_t num_heads,
    std::size_t num_prototypes, Rng& rng, std::string name)
    : out_features_(head_dim * num_heads) {
  CAL_ENSURE(num_heads > 0, "need at least one attention head");
  for (std::size_t h = 0; h < num_heads; ++h)
    heads_.push_back(std::make_unique<PrototypeAttentionHead>(
        in_features, head_dim, num_prototypes, rng,
        name + ".h" + std::to_string(h)));
  w_o_ = std::make_unique<Linear>(out_features_, out_features_, rng,
                                  name + ".wo");
}

autograd::Var MultiHeadPrototypeAttention::forward(const autograd::Var& x) {
  auto cat = heads_[0]->forward(x);
  for (std::size_t h = 1; h < heads_.size(); ++h)
    cat = autograd::concat_cols(cat, heads_[h]->forward(x));
  return w_o_->forward(cat);
}

std::vector<Parameter> MultiHeadPrototypeAttention::parameters() {
  std::vector<Parameter> all;
  for (auto& head : heads_)
    for (auto& p : head->parameters()) all.push_back(p);
  for (auto& p : w_o_->parameters()) all.push_back(p);
  return all;
}

}  // namespace cal::nn

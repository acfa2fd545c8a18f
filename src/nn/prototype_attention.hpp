// Multi-head prototype (inducing-point) attention.
//
// Used by the ANVIL baseline [17]: each head projects the input batch to a
// query space and attends over a set of learned prototype key/value tokens,
// so attention stays a rank-2 computation that batches efficiently. This is
// the inducing-point formulation of multi-head attention (as in the Set
// Transformer); for per-sample feature attention over a handful of learned
// tokens it is equivalent in expressiveness to the ANVIL encoder layer.
//
// MultiHeadPrototypeAttention is a loop over PrototypeAttentionHead: each
// head runs its own query projection and scaled dot-product attention (one
// GEMM per head and step), the head outputs are concatenated column-wise,
// and W_o mixes them.
#pragma once

#include <memory>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace cal::nn {

/// One attention head: Q = x W_q attends over M learned prototypes.
class PrototypeAttentionHead : public Module {
 public:
  PrototypeAttentionHead(std::size_t in_features, std::size_t head_dim,
                         std::size_t num_prototypes, Rng& rng,
                         std::string name = "head");

  autograd::Var forward(const autograd::Var& x) override;
  std::vector<Parameter> parameters() override;

 private:
  std::string name_;
  std::unique_ptr<Linear> w_q_;
  autograd::Var proto_k_;  // (M, head_dim)
  autograd::Var proto_v_;  // (M, head_dim)
};

/// Multi-head wrapper: num_heads PrototypeAttentionHeads, their outputs
/// concatenated column-wise and mixed with W_o.
class MultiHeadPrototypeAttention : public Module {
 public:
  MultiHeadPrototypeAttention(std::size_t in_features, std::size_t head_dim,
                              std::size_t num_heads,
                              std::size_t num_prototypes, Rng& rng,
                              std::string name = "mha");

  autograd::Var forward(const autograd::Var& x) override;
  std::vector<Parameter> parameters() override;

  std::size_t out_features() const { return out_features_; }

 private:
  std::size_t out_features_;
  std::vector<std::unique_ptr<PrototypeAttentionHead>> heads_;
  std::unique_ptr<Linear> w_o_;
};

}  // namespace cal::nn

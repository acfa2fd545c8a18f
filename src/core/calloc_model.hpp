// The CALLOC neural architecture (paper §IV.B/§IV.C, Fig. 3).
//
// Two embedding networks map RSS fingerprints into 128-dimensional
// "hyperspaces":
//   * H_C — the curriculum branch, applied to the (possibly adversarial)
//     lesson batch; feeds the attention Query.
//   * H_O — the original-data branch, with Dropout(0.2) and
//     GaussianNoise(0.32) to emulate environmental/device variation;
//     feeds the attention Key.
// The attention Value carries RP locations. Concretely: the model keeps an
// *anchor set* — one clean fingerprint per RP (the offline database) — so
// at inference the unknown fingerprint attends over the anchor RPs and the
// attention output is a location-aware mixture of RP indicators, which the
// final fully-connected layer classifies. This is the only reading of
// eq. (3) that is well-defined in the online phase, where just one
// fingerprint is available: Q comes from the query, K/V from the stored
// database.
//
// Learned Q/K projections (128 -> attention_dim) give the attention layer
// its trainable parameters (the paper reports 18,961 of them; see
// EXPERIMENTS.md for the parameter audit of this configuration).
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/regularizers.hpp"

namespace cal::core {

struct CallocModelConfig {
  std::size_t num_aps = 0;       ///< input width (set from the dataset)
  std::size_t num_rps = 0;       ///< classes (set from the dataset)
  std::size_t embed_dim = 128;   ///< hyperspace width (paper: 128)
  std::size_t attention_dim = 64;///< Q/K projection width
  /// H_O augmentation, applied to the *original-data batch input*
  /// (normalised RSS) in the hyperspace-alignment branch: dropout
  /// emulates APs vanishing from a scan, Gaussian noise emulates dBm
  /// jitter from environment/device variation — the phenomena §IV.B says
  /// these layers simulate. The paper's 0.2/0.32 values target its
  /// (unreported) activation scale; on the [0,1] RSS scale the noise
  /// equivalent is ~0.05 (≈5 dB). See DESIGN.md §6.
  float dropout_rate = 0.2F;
  float noise_sigma = 0.05F;
  /// Initial attention temperature. Q/K rows are centered and
  /// L2-normalised, so raw scores are cosines in [-1,1]; a learnable
  /// temperature (which absorbs the paper's 1/sqrt(d_k) scaling) sharpens
  /// the anchor softmax enough for gradients to flow from the first
  /// epoch. See DESIGN.md §6.
  float initial_temperature = 12.0F;
  /// The attention output is already a distribution over RP classes, so
  /// the final FC layer starts at gain·I + Xavier noise: it passes the
  /// attention verdict through at full logit scale from epoch 0 and only
  /// has to learn corrections. A plain Xavier head would need thousands
  /// of optimiser steps just to grow its diagonal.
  float head_identity_gain = 8.0F;
  std::uint64_t seed = 51;
};

/// Key half of the anchor attention: a function of the weights and the
/// anchor set only, never of the query batch.
struct AnchorKeys {
  autograd::Var center;  ///< (attention_dim) mean raw anchor key
  autograd::Var keys;    ///< (M x attention_dim) centred, L2-normalised keys
};

/// Dual-hyperspace scaled-dot-product-attention classifier.
class CallocModel : public nn::Module {
 public:
  explicit CallocModel(CallocModelConfig cfg);

  /// Install the anchor set: one (or more) clean fingerprints per RP with
  /// their labels. Must be called before forward().
  void set_anchors(const Tensor& anchor_x_normalized,
                   std::span<const std::size_t> anchor_labels);

  /// Logits over RP classes for a normalised fingerprint batch:
  /// forward(x, anchor_keys()), so gradients reach every parameter.
  autograd::Var forward(const autograd::Var& x) override;

  /// Query half: logits for a batch attending over precomputed keys.
  /// Inference callers pass keys frozen after the last weight change.
  autograd::Var forward(const autograd::Var& x, const AnchorKeys& keys);

  /// Embed the anchor set through the original hyperspace and project it
  /// to attention keys (live graph nodes, differentiable).
  AnchorKeys anchor_keys();

  /// Curriculum hyperspace H_C of a batch (B x embed_dim).
  autograd::Var hyperspace_curriculum(const autograd::Var& x);

  /// Original-data hyperspace H_O of a batch (B x embed_dim); applies
  /// dropout + Gaussian noise in training mode.
  autograd::Var hyperspace_original(const autograd::Var& x);

  /// Anchor attention distribution for a batch (B x num_anchors), in the
  /// current training/eval mode. Interpretability hook: row i shows which
  /// database fingerprints the model consulted for sample i.
  Tensor attention_weights(const Tensor& x_normalized);

  std::vector<nn::Parameter> parameters() override;
  void set_training(bool training) override;

  const CallocModelConfig& config() const { return cfg_; }
  bool has_anchors() const { return anchors_ != nullptr; }
  std::size_t num_anchors() const;

  /// The installed anchor database (M x num_aps, normalised) — the clean
  /// fingerprint manifold the serving layer screens requests against.
  const Tensor& anchor_matrix() const;

  /// RP label of each anchor row (size == num_anchors()).
  std::span<const std::size_t> anchor_labels() const;

  /// Shard-scoped copy of selected anchor rows — the per-shard anchor
  /// database a multi-tenant deployment hands to each serving lane (e.g.
  /// one floor's anchors out of a building-wide model), so screening
  /// scans only that shard's manifold.
  Tensor anchor_rows(std::span<const std::size_t> rows) const;

  /// Parameter-count breakdown mirroring the paper's §V.A audit.
  std::size_t embedding_parameter_count();
  std::size_t attention_parameter_count();
  std::size_t classifier_parameter_count();

  /// Query-side layer access for the int8 quantizer
  /// (core/calloc_quant.cpp), which snapshots trained weights into a
  /// quantized inference copy; the key side comes from anchor_keys().
  nn::Linear& embed_c_layer() { return *embed_c_; }
  nn::Linear& attn_wq_layer() { return *w_q_; }
  nn::Linear& head_layer() { return *head_; }
  float temperature() const { return temperature_->value()[0]; }

 private:
  autograd::Var attention_distribution(const autograd::Var& x,
                                       const AnchorKeys& keys);
  autograd::Var embed_original_clean(const autograd::Var& x);

  CallocModelConfig cfg_;
  std::unique_ptr<nn::Linear> embed_c_;
  std::unique_ptr<nn::Linear> embed_o_;
  std::unique_ptr<nn::Dropout> dropout_o_;
  std::unique_ptr<nn::GaussianNoise> noise_o_;
  std::unique_ptr<nn::Linear> w_q_;
  std::unique_ptr<nn::Linear> w_k_;
  autograd::Var temperature_;  // learnable scalar attention sharpness
  std::unique_ptr<nn::Linear> head_;
  autograd::Var anchors_;        // constant (M x num_aps)
  autograd::Var anchor_onehot_;  // constant (M x num_rps) — the V input
  std::vector<std::size_t> anchor_labels_;  // RP label per anchor row
};

}  // namespace cal::core

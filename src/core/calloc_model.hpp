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
#include <variant>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
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

/// Weight storage of a FrozenQueryHalf: fp32 pre-packed for
/// kernels::gemm_packed, or int8 with one scale per output channel.
enum class WeightFormat { Fp32, Int8 };

/// The inference query half of a trained CallocModel — what
/// Calloc::predict() and QuantizedCalloc both run. CallocModel::freeze()
/// copies every operand out of the model: the query-side Linear weights
/// and the anchor keys of anchor_keys() in the chosen WeightFormat, and
/// the biases, the key centre, the temperature and the anchor labels in
/// fp32. logits() follows forward()'s op order on plain tensors,
/// so at Fp32 it is byte-equal to the autograd forward. Immutable once
/// built: concurrent logits() calls only read.
class FrozenQueryHalf {
 public:
  /// RP logits for a normalised (B x num_aps) fingerprint batch.
  Tensor logits(const Tensor& x_normalized) const;

  /// Resident bytes of the frozen operands.
  std::size_t bytes() const;

  using Operand = std::variant<kernels::PackedMatrix, kernels::QuantizedMatrix>;
  struct Layer {
    Operand w;  ///< (in x out); y = x·W + bias
    std::vector<float> bias;
  };

 private:
  friend class CallocModel;

  std::size_t num_aps_ = 0;
  Layer embed_;   // H_C embedding (relu follows)
  Layer query_;   // attention query projection
  Operand keys_;  // (attention_dim x M) anchor keys, applied as q·K
  std::vector<float> center_;  // (attention_dim) mean raw anchor key
  float temperature_ = 1.0F;
  std::vector<std::size_t> anchor_labels_;  // (M) RP label per key
  Layer head_;
};

/// Dual-hyperspace scaled-dot-product-attention classifier.
class CallocModel : public nn::Module {
 public:
  explicit CallocModel(CallocModelConfig cfg);

  /// Install the anchor set: one (or more) clean fingerprints per RP with
  /// their labels. Must be called before forward().
  void set_anchors(const Tensor& anchor_x_normalized,
                   std::span<const std::size_t> anchor_labels);

  /// Logits over RP classes for a normalised fingerprint batch. The
  /// anchor keys are re-embedded on every call, so gradients reach every
  /// parameter.
  autograd::Var forward(const autograd::Var& x) override;

  /// Snapshot the query half and the current anchor keys for inference.
  /// Later weight edits do not reach the snapshot.
  FrozenQueryHalf freeze(WeightFormat format);

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

 private:
  /// Embed the anchor set through the original hyperspace and project it
  /// to attention keys (live graph nodes, differentiable).
  AnchorKeys anchor_keys();
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

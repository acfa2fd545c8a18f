// Int8-quantized inference copy of a trained CALLOC model.
//
// Built from a fitted CallocModel at ModelRegistry::publish() time (via
// Calloc::quantize_int8): every weight matrix is snapshotted to int8 with
// per-output-channel symmetric scales, biases/temperature/anchor geometry
// stay fp32, and the anchor keys come from CallocModel::anchor_keys() — the
// same fp32 key half the model trains with — stored as one per-row
// quantized M x attention_dim matrix plus the fp32 mean key. The query
// half then rides gemm_s8_nn/nt end to end with dynamic per-row activation
// quantization between layers, and the attention·onehot product reduces
// to a per-label accumulation (V is an indicator matrix).
//
// ~4x smaller resident weights than the fp32 replica and roughly double
// the GEMM throughput on AVX2-class hardware; accuracy tracks fp32 within
// the CI-enforced localization-error delta (bench_kernels gates it).
// Inference-only: fit() refuses, gradient_source() is nullptr (white-box
// attackers transfer from the fp32 surrogate).
#pragma once

#include <cstddef>
#include <vector>

#include "baselines/localizer.hpp"
#include "kernels/quant.hpp"

namespace cal::core {

class CallocModel;

/// Quantized CALLOC forward path as an ILocalizer, deployable wherever the
/// fp32 model is (TenantSpec precision = Precision::Int8).
class QuantizedCalloc : public baselines::ILocalizer {
 public:
  /// Snapshot a trained model (anchors installed) into int8 form.
  explicit QuantizedCalloc(CallocModel& model);

  /// Refuses: quantized models are inference-only; retrain the fp32 model
  /// and re-quantize instead.
  void fit(const data::FingerprintDataset& train) override;

  std::vector<std::size_t> predict(const Tensor& x_normalized) override;
  std::string name() const override;
  std::size_t weight_bytes() const override;

  /// RP probabilities (post-head softmax is skipped — argmax over logits
  /// equals argmax over probabilities); exposed for accuracy tests.
  std::vector<float> logits(const Tensor& x_normalized);

 private:
  std::size_t num_aps_ = 0;
  std::size_t embed_dim_ = 0;
  std::size_t attn_dim_ = 0;
  std::size_t num_rps_ = 0;

  kernels::QuantizedMatrix w_embed_c_;  // (num_aps x embed_dim), per-col
  std::vector<float> b_embed_c_;
  kernels::QuantizedMatrix w_q_;        // (embed_dim x attn_dim), per-col
  std::vector<float> b_q_;
  kernels::QuantizedMatrix k_norm_;     // (M x attn_dim), per-row
  std::vector<float> center_;           // (attn_dim)
  float temperature_ = 1.0F;
  std::vector<std::size_t> anchor_labels_;  // (M)
  kernels::QuantizedMatrix w_head_;     // (num_rps x num_rps), per-col
  std::vector<float> b_head_;
};

}  // namespace cal::core

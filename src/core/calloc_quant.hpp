// Int8 inference replica of a trained CALLOC model.
//
// Built from a fitted CallocModel at ModelRegistry::publish() time (via
// Calloc::quantize_int8) as CallocModel::freeze(WeightFormat::Int8): the
// same frozen query half fp32 Calloc::predict() runs, with every weight
// matrix and the anchor keys stored int8 (one symmetric scale per output
// channel) and biases, key centre and temperature in fp32. Each GEMM
// quantizes its activations per row and rides gemm_s8_nn/nt.
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
#include "core/calloc_model.hpp"

namespace cal::core {

/// Int8 CALLOC as an ILocalizer, deployable wherever the fp32 model is
/// (TenantSpec precision = Precision::Int8).
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

  /// RP logits behind predict(); exposed for accuracy tests.
  Tensor logits(const Tensor& x_normalized) const;

 private:
  FrozenQueryHalf frozen_;
};

}  // namespace cal::core

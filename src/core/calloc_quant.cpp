#include "core/calloc_quant.hpp"

#include "autograd/ops.hpp"
#include "common/ensure.hpp"

namespace cal::core {

QuantizedCalloc::QuantizedCalloc(CallocModel& model)
    : frozen_(model.freeze(WeightFormat::Int8)) {}

void QuantizedCalloc::fit(const data::FingerprintDataset& /*train*/) {
  CAL_ENSURE(false,
             "QuantizedCalloc is inference-only: retrain the fp32 CALLOC "
             "model and re-quantize");
}

Tensor QuantizedCalloc::logits(const Tensor& x) const {
  return frozen_.logits(x);
}

std::vector<std::size_t> QuantizedCalloc::predict(const Tensor& x) {
  return autograd::argmax_rows(logits(x));
}

std::string QuantizedCalloc::name() const { return "CALLOC-int8"; }

std::size_t QuantizedCalloc::weight_bytes() const { return frozen_.bytes(); }

}  // namespace cal::core

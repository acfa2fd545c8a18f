#include "core/calloc_quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"
#include "core/calloc_model.hpp"
#include "kernels/gemm.hpp"

namespace cal::core {
namespace {

// Mirrors the fp32 path's l2_normalize_rows epsilon.
constexpr float kNormEps = 1e-8F;

std::vector<float> copy_bias(nn::Linear& layer) {
  const Tensor& b = layer.bias()->value();
  return {b.data(), b.data() + b.size()};
}

void softmax_rows_inplace(std::vector<float>& x, std::size_t rows,
                          std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = x.data() + i * cols;
    float mx = row[0];
    for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = 1.0F / denom;
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace

QuantizedCalloc::QuantizedCalloc(CallocModel& model) {
  CAL_ENSURE(model.has_anchors(),
             "QuantizedCalloc needs a fitted model with anchors installed");
  const CallocModelConfig& cfg = model.config();
  num_aps_ = cfg.num_aps;
  embed_dim_ = cfg.embed_dim;
  attn_dim_ = cfg.attention_dim;
  num_rps_ = cfg.num_rps;
  temperature_ = model.temperature();
  const auto labels = model.anchor_labels();
  anchor_labels_.assign(labels.begin(), labels.end());

  // Query-side weights: int8 with one scale per output channel.
  {
    const Tensor& w = model.embed_c_layer().weight()->value();
    w_embed_c_ = kernels::quantize_per_output_channel(w.flat(), w.rows(),
                                                      w.cols());
    b_embed_c_ = copy_bias(model.embed_c_layer());
  }
  {
    const Tensor& w = model.attn_wq_layer().weight()->value();
    w_q_ = kernels::quantize_per_output_channel(w.flat(), w.rows(), w.cols());
    b_q_ = copy_bias(model.attn_wq_layer());
  }
  {
    const Tensor& w = model.head_layer().weight()->value();
    w_head_ =
        kernels::quantize_per_output_channel(w.flat(), w.rows(), w.cols());
    b_head_ = copy_bias(model.head_layer());
  }

  // The model's own fp32 anchor keys, quantized per row (rows are the
  // gemm_s8_nt output channels).
  const AnchorKeys keys = model.anchor_keys();
  const Tensor& center = keys.center->value();
  center_.assign(center.data(), center.data() + center.size());
  const Tensor& k = keys.keys->value();
  k_norm_ = kernels::quantize_rows(k.flat(), k.rows(), k.cols());
}

void QuantizedCalloc::fit(const data::FingerprintDataset& /*train*/) {
  CAL_ENSURE(false,
             "QuantizedCalloc is inference-only: retrain the fp32 CALLOC "
             "model and re-quantize");
}

std::vector<float> QuantizedCalloc::logits(const Tensor& x) {
  CAL_ENSURE(x.rank() == 2 && x.cols() == num_aps_,
             "QuantizedCalloc expects input (*, " << num_aps_ << "), got "
                                                  << x.shape_str());
  const std::size_t rows = x.rows();
  const std::size_t m = anchor_labels_.size();
  std::vector<std::int8_t> a8(rows * std::max({num_aps_, embed_dim_,
                                               attn_dim_, num_rps_}));
  std::vector<float> a_scales(rows);

  // relu(x·W_ec + b) — int8 GEMM, fp32 bias/activation.
  std::vector<float> h(rows * embed_dim_);
  kernels::quantize_rows(x.flat(), rows, num_aps_,
                std::span<std::int8_t>(a8.data(), rows * num_aps_), a_scales);
  kernels::gemm_s8_nn({a8.data(), rows * num_aps_}, w_embed_c_.data, h, rows,
                      num_aps_, embed_dim_, a_scales, w_embed_c_.scales);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < embed_dim_; ++j) {
      float& v = h[i * embed_dim_ + j];
      v = std::max(v + b_embed_c_[j], 0.0F);
    }

  // q = l2norm(h·W_q + b − center)
  std::vector<float> q(rows * attn_dim_);
  kernels::quantize_rows(h, rows, embed_dim_,
                std::span<std::int8_t>(a8.data(), rows * embed_dim_),
                a_scales);
  kernels::gemm_s8_nn({a8.data(), rows * embed_dim_}, w_q_.data, q, rows,
                      embed_dim_, attn_dim_, a_scales, w_q_.scales);
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = q.data() + i * attn_dim_;
    float sq = 0.0F;
    for (std::size_t j = 0; j < attn_dim_; ++j) {
      row[j] += b_q_[j] - center_[j];
      sq += row[j] * row[j];
    }
    const float inv = 1.0F / std::max(std::sqrt(sq), kNormEps);
    for (std::size_t j = 0; j < attn_dim_; ++j) row[j] *= inv;
  }

  // Attention over anchors: temperature-sharpened centered cosines.
  std::vector<float> scores(rows * m);
  kernels::quantize_rows(q, rows, attn_dim_,
                std::span<std::int8_t>(a8.data(), rows * attn_dim_),
                a_scales);
  kernels::gemm_s8_nt({a8.data(), rows * attn_dim_}, k_norm_.data, scores,
                      rows, attn_dim_, m, a_scales, k_norm_.scales);
  for (float& v : scores) v *= temperature_;
  softmax_rows_inplace(scores, rows, m);

  // weights·onehot = per-RP-label sum of attention mass (V is an
  // indicator matrix — no GEMM needed).
  std::vector<float> attended(rows * num_rps_, 0.0F);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* srow = scores.data() + i * m;
    float* arow = attended.data() + i * num_rps_;
    for (std::size_t a = 0; a < m; ++a) arow[anchor_labels_[a]] += srow[a];
  }

  // Head logits.
  std::vector<float> out(rows * num_rps_);
  kernels::quantize_rows(attended, rows, num_rps_,
                std::span<std::int8_t>(a8.data(), rows * num_rps_), a_scales);
  kernels::gemm_s8_nn({a8.data(), rows * num_rps_}, w_head_.data, out, rows,
                      num_rps_, num_rps_, a_scales, w_head_.scales);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < num_rps_; ++j)
      out[i * num_rps_ + j] += b_head_[j];
  return out;
}

std::vector<std::size_t> QuantizedCalloc::predict(const Tensor& x) {
  const std::vector<float> out = logits(x);
  const std::size_t rows = x.rows();
  std::vector<std::size_t> pred(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = out.data() + i * num_rps_;
    std::size_t best = 0;
    for (std::size_t j = 1; j < num_rps_; ++j)
      if (row[j] > row[best]) best = j;
    pred[i] = best;
  }
  return pred;
}

std::string QuantizedCalloc::name() const { return "CALLOC-int8"; }

std::size_t QuantizedCalloc::weight_bytes() const {
  return w_embed_c_.bytes() + w_q_.bytes() + k_norm_.bytes() +
         w_head_.bytes() +
         (b_embed_c_.size() + b_q_.size() + center_.size() + b_head_.size() +
          1 /*temperature*/) *
             sizeof(float) +
         anchor_labels_.size() * sizeof(std::size_t);
}

}  // namespace cal::core

#include "core/calloc_model.hpp"

#include <algorithm>
#include <cmath>

#include "autograd/ops.hpp"
#include "common/ensure.hpp"

namespace cal::core {
namespace {

// autograd::l2_normalize_rows' default epsilon.
constexpr float kNormEps = 1e-8F;

// x·W for one frozen operand W. An int8 operand quantizes x per row first;
// a per-row int8 matrix holds W transposed (its rows are the output
// channels — the anchor keys).
Tensor times(const Tensor& x, const FrozenQueryHalf::Operand& w) {
  const std::size_t rows = x.rows();
  if (const auto* packed = std::get_if<kernels::PackedMatrix>(&w)) {
    Tensor y = Tensor::uninitialized({rows, packed->n()});
    kernels::gemm_packed(x.flat(), *packed, y.flat(), rows);
    return y;
  }
  const auto& q = std::get<kernels::QuantizedMatrix>(w);
  const std::size_t k = q.per_row ? q.cols : q.rows;
  const std::size_t n = q.per_row ? q.rows : q.cols;
  std::vector<std::int8_t> x8(rows * k);
  std::vector<float> scales(rows);
  kernels::quantize_rows(x.flat(), rows, k, x8, scales);
  Tensor y = Tensor::uninitialized({rows, n});
  if (q.per_row)
    kernels::gemm_s8_nt(x8, q.data, y.flat(), rows, k, n, scales, q.scales);
  else
    kernels::gemm_s8_nn(x8, q.data, y.flat(), rows, k, n, scales, q.scales);
  return y;
}

// x·W + b, adding the bias as autograd::add_rowwise does.
Tensor apply(const FrozenQueryHalf::Layer& layer, const Tensor& x) {
  Tensor y = times(x, layer.w);
  const std::size_t cols = y.cols();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* row = y.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += layer.bias[j];
  }
  return y;
}

std::size_t operand_bytes(const FrozenQueryHalf::Operand& w) {
  return std::visit([](const auto& m) { return m.bytes(); }, w);
}

}  // namespace

Tensor FrozenQueryHalf::logits(const Tensor& x) const {
  CAL_ENSURE(x.rank() == 2 && x.cols() == num_aps_,
             "CALLOC expects input (*, " << num_aps_ << "), got "
                                         << x.shape_str());
  const std::size_t rows = x.rows();
  // H_C = relu(x·W_ec + b).
  Tensor h = apply(embed_, x);
  for (float& v : h.flat())
    if (v < 0.0F) v = 0.0F;

  // q = l2_normalize((h·W_q + b) − centre).
  Tensor q = apply(query_, h);
  const std::size_t d = q.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = q.data() + i * d;
    float sq = 0.0F;
    for (std::size_t j = 0; j < d; ++j) {
      row[j] -= center_[j];
      sq += row[j] * row[j];
    }
    const float inv = 1.0F / std::max(std::sqrt(sq), kNormEps);
    for (std::size_t j = 0; j < d; ++j) row[j] *= inv;
  }

  // Attention over the anchors: softmax of temperature-scaled centred
  // cosines.
  Tensor scores = times(q, keys_);
  for (float& v : scores.flat()) v *= temperature_;
  const Tensor weights = autograd::softmax_rows_tensor(scores);

  // weights·V with V the anchors' RP indicators: a per-label sum of
  // attention mass. It equals the autograd GEMM bit for bit when no label
  // has anchors on both sides of a 256-anchor k block (CALLOC installs
  // one anchor per RP).
  const std::size_t m = anchor_labels_.size();
  Tensor attended({rows, head_.bias.size()});
  for (std::size_t i = 0; i < rows; ++i) {
    const float* wrow = weights.data() + i * m;
    float* arow = attended.data() + i * attended.cols();
    for (std::size_t a = 0; a < m; ++a) arow[anchor_labels_[a]] += wrow[a];
  }
  return apply(head_, attended);
}

std::size_t FrozenQueryHalf::bytes() const {
  const std::size_t floats = embed_.bias.size() + query_.bias.size() +
                             center_.size() + 1 /*temperature*/ +
                             head_.bias.size();
  return operand_bytes(embed_.w) + operand_bytes(query_.w) +
         operand_bytes(keys_) + operand_bytes(head_.w) +
         floats * sizeof(float) +
         anchor_labels_.size() * sizeof(std::size_t);
}

CallocModel::CallocModel(CallocModelConfig cfg) : cfg_(cfg) {
  CAL_ENSURE(cfg_.num_aps > 0, "CallocModel needs num_aps > 0");
  CAL_ENSURE(cfg_.num_rps > 0, "CallocModel needs num_rps > 0");
  CAL_ENSURE(cfg_.embed_dim > 0 && cfg_.attention_dim > 0,
             "CallocModel dims must be positive");
  Rng rng(cfg_.seed);
  embed_c_ = std::make_unique<nn::Linear>(cfg_.num_aps, cfg_.embed_dim, rng,
                                          "embed_c");
  embed_o_ = std::make_unique<nn::Linear>(cfg_.num_aps, cfg_.embed_dim, rng,
                                          "embed_o");
  dropout_o_ = std::make_unique<nn::Dropout>(cfg_.dropout_rate, rng.fork(2));
  noise_o_ = std::make_unique<nn::GaussianNoise>(cfg_.noise_sigma,
                                                 rng.fork(3));
  w_q_ = std::make_unique<nn::Linear>(cfg_.embed_dim, cfg_.attention_dim, rng,
                                      "attn_wq");
  w_k_ = std::make_unique<nn::Linear>(cfg_.embed_dim, cfg_.attention_dim, rng,
                                      "attn_wk");
  // Siamese initialisation: both hyperspace branches (and both attention
  // projections) start from identical weights, so a query and its matching
  // anchor land on the same embedding at epoch 0 and the anchor softmax is
  // informative from the first step. Without this the two branches are
  // independent random bases and the attention gradient is too weak to
  // align them (see DESIGN.md §6). The branches diverge freely during
  // training.
  embed_o_->weight()->mutable_value() = embed_c_->weight()->value();
  embed_o_->bias()->mutable_value() = embed_c_->bias()->value();
  w_k_->weight()->mutable_value() = w_q_->weight()->value();
  w_k_->bias()->mutable_value() = w_q_->bias()->value();
  Tensor temp({1});
  temp[0] = cfg_.initial_temperature;
  temperature_ = autograd::make_leaf(std::move(temp), true);
  head_ = std::make_unique<nn::Linear>(cfg_.num_rps, cfg_.num_rps, rng,
                                       "head");
  Tensor& head_w = head_->weight()->mutable_value();
  for (std::size_t i = 0; i < cfg_.num_rps; ++i)
    head_w.at(i, i) += cfg_.head_identity_gain;
}

void CallocModel::set_anchors(const Tensor& anchor_x,
                              std::span<const std::size_t> anchor_labels) {
  CAL_ENSURE(anchor_x.rank() == 2 && anchor_x.cols() == cfg_.num_aps,
             "anchor matrix must be (M, " << cfg_.num_aps << "), got "
                                          << anchor_x.shape_str());
  CAL_ENSURE(anchor_labels.size() == anchor_x.rows(),
             "anchor labels/rows mismatch");
  Tensor onehot({anchor_x.rows(), cfg_.num_rps});
  for (std::size_t i = 0; i < anchor_labels.size(); ++i) {
    CAL_ENSURE(anchor_labels[i] < cfg_.num_rps,
               "anchor label " << anchor_labels[i] << " out of "
                               << cfg_.num_rps);
    onehot.at(i, anchor_labels[i]) = 1.0F;
  }
  anchors_ = autograd::constant(anchor_x);
  anchor_onehot_ = autograd::constant(std::move(onehot));
  anchor_labels_.assign(anchor_labels.begin(), anchor_labels.end());
}

autograd::Var CallocModel::hyperspace_curriculum(const autograd::Var& x) {
  return autograd::relu(embed_c_->forward(x));
}

autograd::Var CallocModel::hyperspace_original(const autograd::Var& x) {
  // Input-space augmentation: dropped APs and RSS jitter (training only).
  // Applied when H_O embeds the original-data *batch* (the alignment-loss
  // branch of Fig. 3); the anchor/key path below uses the clean embedding
  // — randomising the entire fingerprint database every step would
  // destroy the attention signal the curriculum trains against.
  auto noisy = noise_o_->forward(dropout_o_->forward(x));
  return autograd::relu(embed_o_->forward(noisy));
}

autograd::Var CallocModel::embed_original_clean(const autograd::Var& x) {
  return autograd::relu(embed_o_->forward(x));
}

AnchorKeys CallocModel::anchor_keys() {
  CAL_ENSURE(anchors_ != nullptr, "anchor_keys before set_anchors()");
  auto k_raw = w_k_->forward(embed_original_clean(anchors_));
  auto center = autograd::mean_over_rows(k_raw);
  return {center,
          autograd::l2_normalize_rows(autograd::sub_rowwise(k_raw, center))};
}

FrozenQueryHalf CallocModel::freeze(WeightFormat format) {
  CAL_ENSURE(anchors_ != nullptr, "freeze before set_anchors()");
  const bool fp32 = format == WeightFormat::Fp32;
  const auto linear = [fp32](nn::Linear& layer) {
    const Tensor& w = layer.weight()->value();
    const Tensor& b = layer.bias()->value();
    return FrozenQueryHalf::Layer{
        fp32 ? FrozenQueryHalf::Operand(
                   kernels::pack_b(w.flat(), w.rows(), w.cols()))
             : kernels::quantize_per_output_channel(w.flat(), w.rows(),
                                                    w.cols()),
        {b.data(), b.data() + b.size()}};
  };
  FrozenQueryHalf f;
  f.num_aps_ = cfg_.num_aps;
  f.embed_ = linear(*embed_c_);
  f.query_ = linear(*w_q_);
  f.head_ = linear(*head_);
  // The key rows are the output channels of q·Kᵀ: packed as the
  // transposed operand, or quantized one scale per row.
  const AnchorKeys keys = anchor_keys();
  const Tensor& k = keys.keys->value();
  if (fp32)
    f.keys_ = kernels::pack_b(k.flat(), k.cols(), k.rows(),
                              /*transposed=*/true);
  else
    f.keys_ = kernels::quantize_rows(k.flat(), k.rows(), k.cols());
  const Tensor& center = keys.center->value();
  f.center_.assign(center.data(), center.data() + center.size());
  f.temperature_ = temperature_->value()[0];
  f.anchor_labels_ = anchor_labels_;
  return f;
}

autograd::Var CallocModel::attention_distribution(const autograd::Var& x,
                                                  const AnchorKeys& keys) {
  auto q = autograd::l2_normalize_rows(autograd::sub_rowwise(
      w_q_->forward(hyperspace_curriculum(x)), keys.center));
  // Fused q·kᵀ skips the per-call K-transpose copy of the M-anchor scores.
  auto scores =
      autograd::scale_by(autograd::matmul_nt(q, keys.keys), temperature_);
  return autograd::softmax_rows(scores);
}

Tensor CallocModel::attention_weights(const Tensor& x) {
  return attention_distribution(autograd::constant(x), anchor_keys())
      ->value();
}

autograd::Var CallocModel::forward(const autograd::Var& x) {
  CAL_ENSURE(anchors_ != nullptr,
             "CallocModel::forward before set_anchors()");
  // Q from the query batch through the curriculum hyperspace; K from the
  // anchor database through the original hyperspace; V = RP indicators.
  //
  // Scores are *centered cosine* similarities sharpened by a learnable
  // temperature (which folds in eq. 3's 1/sqrt(d_k)). RSS fingerprints
  // share a dominant common-mode component (the overall decay pattern):
  // raw query/anchor cosines measure 0.995-0.999 for every pair, so a
  // plain scaled dot product gives a near-uniform softmax whose gradient
  // vanishes. Subtracting the mean anchor embedding from both sides
  // removes the common mode and leaves the location-discriminative
  // directions. See DESIGN.md §6.
  auto weights = attention_distribution(x, anchor_keys());
  auto attended = autograd::matmul(weights, anchor_onehot_);
  return head_->forward(attended);
}

std::vector<nn::Parameter> CallocModel::parameters() {
  std::vector<nn::Parameter> all;
  for (auto* m : {embed_c_.get(), embed_o_.get(), w_q_.get(), w_k_.get(),
                  head_.get()})
    for (auto& p : m->parameters()) all.push_back(p);
  all.push_back({"attn.temperature", temperature_});
  return all;
}

void CallocModel::set_training(bool training) {
  nn::Module::set_training(training);
  dropout_o_->set_training(training);
  noise_o_->set_training(training);
}

std::size_t CallocModel::num_anchors() const {
  CAL_ENSURE(anchors_ != nullptr, "no anchors installed");
  return anchors_->value().rows();
}

const Tensor& CallocModel::anchor_matrix() const {
  CAL_ENSURE(anchors_ != nullptr, "no anchors installed");
  return anchors_->value();
}

std::span<const std::size_t> CallocModel::anchor_labels() const {
  CAL_ENSURE(anchors_ != nullptr, "no anchors installed");
  return anchor_labels_;
}

namespace {

std::size_t count_params(nn::Module& m) {
  std::size_t n = 0;
  for (const auto& p : m.parameters()) n += p.var->value().size();
  return n;
}

}  // namespace

std::size_t CallocModel::embedding_parameter_count() {
  return count_params(*embed_c_) + count_params(*embed_o_);
}

std::size_t CallocModel::attention_parameter_count() {
  return count_params(*w_q_) + count_params(*w_k_) +
         temperature_->value().size();
}

std::size_t CallocModel::classifier_parameter_count() {
  return count_params(*head_);
}

}  // namespace cal::core

#include "core/calloc_model.hpp"

#include <algorithm>

#include "autograd/ops.hpp"
#include "common/ensure.hpp"

namespace cal::core {

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
  return forward(x, anchor_keys());
}

autograd::Var CallocModel::forward(const autograd::Var& x,
                                   const AnchorKeys& keys) {
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
  auto weights = attention_distribution(x, keys);
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

Tensor CallocModel::anchor_rows(std::span<const std::size_t> rows) const {
  CAL_ENSURE(anchors_ != nullptr, "no anchors installed");
  CAL_ENSURE(!rows.empty(), "anchor_rows needs at least one row");
  const Tensor& all = anchors_->value();
  Tensor out = Tensor::uninitialized({rows.size(), all.cols()});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    CAL_ENSURE(rows[i] < all.rows(),
               "anchor row " << rows[i] << " out of " << all.rows());
    const auto src = all.row(rows[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
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

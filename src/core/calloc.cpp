#include "core/calloc.hpp"

#include <fstream>
#include <numeric>
#include <utility>

#include "autograd/ops.hpp"
#include "common/ensure.hpp"
#include "core/calloc_quant.hpp"

namespace cal::core {

Tensor build_anchor_database(const data::FingerprintDataset& train) {
  Tensor anchors = train.mean_fingerprint_per_rp();
  for (std::size_t i = 0; i < anchors.size(); ++i)
    anchors[i] = data::normalize_rss(anchors[i]);
  return anchors;
}

namespace {

/// Shared by fit() and load_weights(): size the model to the dataset and
/// install the per-RP mean-fingerprint anchor database.
std::unique_ptr<CallocModel> build_model_for(
    const data::FingerprintDataset& train, CallocModelConfig mc,
    std::uint64_t seed) {
  mc.num_aps = train.num_aps();
  mc.num_rps = train.num_rps();
  mc.seed = seed;
  auto model = std::make_unique<CallocModel>(mc);
  Tensor anchors = build_anchor_database(train);
  std::vector<std::size_t> anchor_labels(train.num_rps());
  std::iota(anchor_labels.begin(), anchor_labels.end(), 0);
  model->set_anchors(anchors, anchor_labels);
  return model;
}

}  // namespace

Calloc::Calloc(CallocConfig cfg) : cfg_(cfg) {
  CAL_ENSURE(cfg_.num_lessons >= 2, "CALLOC needs >= 2 lessons");
  CAL_ENSURE(cfg_.train_epsilon >= 0.0 && cfg_.train_epsilon <= 1.0,
             "train epsilon out of [0,1]");
}

void Calloc::install(std::unique_ptr<CallocModel> model) {
  frozen_ = model->freeze(WeightFormat::Fp32);
  model_ = std::move(model);
  grads_ = std::make_unique<attacks::ModuleGradientSource>(*model_);
}

void Calloc::fit(const data::FingerprintDataset& train) {
  CAL_ENSURE(train.num_samples() >= 4, "CALLOC fit needs >= 4 samples");
  auto model = build_model_for(train, cfg_.model, cfg_.seed);

  const CurriculumSchedule schedule =
      cfg_.use_curriculum
          ? CurriculumSchedule::standard(cfg_.num_lessons, cfg_.train_epsilon,
                                         cfg_.max_adversarial_fraction)
          : CurriculumSchedule::no_curriculum(cfg_.train_epsilon,
                                              cfg_.max_adversarial_fraction);

  AdaptiveTrainConfig tc = cfg_.train;
  tc.seed = cfg_.seed ^ 0xCA110CULL;
  if (!cfg_.adaptive) tc.divergence_patience = 0;
  if (!cfg_.use_curriculum) {
    // Match the curriculum's total epoch budget so NC is a fair ablation
    // of ordering, not of compute.
    tc.max_epochs_per_lesson =
        cfg_.train.max_epochs_per_lesson * cfg_.num_lessons;
  }

  AdaptiveCurriculumTrainer trainer(tc);
  report_ = trainer.train(*model, train.normalized(), train.labels(),
                          schedule);
  install(std::move(model));
}

std::vector<std::size_t> Calloc::predict(const Tensor& x) {
  return autograd::argmax_rows(logits(x));
}

Tensor Calloc::logits(const Tensor& x) const {
  CAL_ENSURE(model_ != nullptr, "CALLOC predict before fit");
  return frozen_.logits(x);
}

std::string Calloc::name() const {
  return cfg_.use_curriculum ? "CALLOC" : "CALLOC-NC";
}

attacks::GradientSource* Calloc::gradient_source() {
  return grads_ ? grads_.get() : nullptr;
}

std::size_t Calloc::weight_bytes() const {
  if (!model_) return 0;
  std::size_t floats = 0;
  for (const auto& p : model_->parameters()) floats += p.var->value().size();
  // Anchor database, onehot V and the frozen query half are part of the
  // resident inference state.
  floats += model_->anchor_matrix().size();
  floats += model_->num_anchors() * model_->config().num_rps;
  return floats * sizeof(float) + frozen_.bytes();
}

std::unique_ptr<baselines::ILocalizer> Calloc::quantize_int8() {
  CAL_ENSURE(model_ != nullptr, "quantize_int8 before fit/load_weights");
  return std::make_unique<QuantizedCalloc>(*model_);
}

CallocModel& Calloc::model() {
  CAL_ENSURE(model_ != nullptr, "CALLOC model() before fit");
  return *model_;
}

void Calloc::save_weights(const std::string& path) {
  CAL_ENSURE(model_ != nullptr, "save_weights before fit");
  std::ofstream out(path, std::ios::binary);
  CAL_ENSURE(out.good(), "cannot open " << path << " for writing");
  model_->save_weights(out);
}

void Calloc::load_weights(const std::string& path,
                          const data::FingerprintDataset& train) {
  std::ifstream in(path, std::ios::binary);
  CAL_ENSURE(in.good(), "cannot open " << path << " for reading");
  auto model = build_model_for(train, cfg_.model, cfg_.seed);
  model->load_weights(in);
  model->set_training(false);
  install(std::move(model));
}

const CurriculumReport& Calloc::report() const {
  CAL_ENSURE(report_.has_value(), "CALLOC report() before fit");
  return *report_;
}

}  // namespace cal::core

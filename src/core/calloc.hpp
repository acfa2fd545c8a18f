// Public entry point of the CALLOC framework.
//
// Quickstart:
//   cal::core::Calloc model;                       // default configuration
//   model.fit(train_dataset);                      // offline phase
//   auto rps = model.predict(test.normalized());   // online phase
//
// fit() builds the anchor database (one mean clean fingerprint per RP),
// instantiates the hyperspace-attention model sized to the dataset, and
// runs the adaptive curriculum. Configuration switches expose the paper's
// ablations: use_curriculum=false gives the "NC" variant of Fig. 5 and
// adaptive=false freezes the ø schedule (static curriculum).
#pragma once

#include <memory>
#include <optional>

#include "baselines/localizer.hpp"
#include "core/adaptive_trainer.hpp"
#include "core/calloc_model.hpp"
#include "core/curriculum.hpp"

namespace cal::core {

/// The anchor database fit() installs: one per-RP mean clean fingerprint,
/// on the normalised [0,1] scale. Shared with the serving layer's
/// screening calibration so both always describe the same manifold.
Tensor build_anchor_database(const data::FingerprintDataset& train);

struct CallocConfig {
  /// Model shape; num_aps/num_rps are filled in by fit() from the data.
  CallocModelConfig model;
  /// Curriculum shape (paper defaults: 10 lessons, ϵ = 0.1).
  std::size_t num_lessons = 10;
  double train_epsilon = 0.1;
  double max_adversarial_fraction = 0.9;
  /// Training controller.
  AdaptiveTrainConfig train;
  /// Fig. 5 "NC" ablation: single hardest-mix lesson, no progression.
  bool use_curriculum = true;
  /// §IV.D ablation: disable divergence-driven ø reduction.
  bool adaptive = true;
  std::uint64_t seed = 71;
};

/// CALLOC as an ILocalizer, interchangeable with every baseline.
class Calloc : public baselines::ILocalizer {
 public:
  explicit Calloc(CallocConfig cfg = CallocConfig{});

  void fit(const data::FingerprintDataset& train) override;
  std::vector<std::size_t> predict(const Tensor& x_normalized) override;
  std::string name() const override;
  attacks::GradientSource* gradient_source() override;
  std::size_t weight_bytes() const override;

  /// Snapshot the trained model into an int8 inference copy
  /// (core/calloc_quant.hpp) — what ModelRegistry::publish() calls for
  /// tenants deployed at Precision::Int8.
  std::unique_ptr<baselines::ILocalizer> quantize_int8() override;

  /// RP logits behind predict(): the query half frozen at the last fit()
  /// or load_weights() (CallocModel::freeze), byte-equal to the autograd
  /// forward's.
  Tensor logits(const Tensor& x_normalized) const;

  /// Trained model access (for footprint audits and weight IO). predict()
  /// runs a copy of the query-half weights and anchor keys frozen at the
  /// last fit() or load_weights(), so a weight edit made through this
  /// reference reaches predict() only after the next fit() or
  /// load_weights().
  CallocModel& model();

  /// Persist the trained weights (deployment artefact, ~250 kB at paper
  /// scale). The dataset geometry (num_aps/num_rps) and anchors must be
  /// re-established via fit() or load_weights() on a matching dataset.
  void save_weights(const std::string& path);

  /// Restore weights saved by save_weights(). `train` must be the same
  /// (or an identically-shaped) dataset used for the original fit: it
  /// rebuilds the model geometry and the anchor database without
  /// re-running the curriculum.
  void load_weights(const std::string& path,
                    const data::FingerprintDataset& train);

  /// Curriculum outcome of the last fit().
  const CurriculumReport& report() const;

 private:
  /// Make `model` the served one: freeze its query half for predict()
  /// and point the gradient source at it.
  void install(std::unique_ptr<CallocModel> model);

  CallocConfig cfg_;
  std::unique_ptr<CallocModel> model_;
  FrozenQueryHalf frozen_;  // model_->freeze(WeightFormat::Fp32)
  std::unique_ptr<attacks::ModuleGradientSource> grads_;
  std::optional<CurriculumReport> report_;
};

}  // namespace cal::core

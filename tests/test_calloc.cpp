// End-to-end tests of the CALLOC facade: the paper's headline behaviours
// on a small simulated building.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "autograd/ops.hpp"
#include "common/ensure.hpp"
#include "core/calloc.hpp"
#include "eval/frameworks.hpp"
#include "eval/harness.hpp"
#include "nn/trainer.hpp"
#include "sim/collector.hpp"

namespace {

using namespace cal;
using namespace cal::core;

const sim::Scenario& scenario() {
  static const sim::Scenario sc = [] {
    sim::BuildingSpec spec;
    spec.name = "calloc-test";
    spec.num_aps = 24;
    spec.path_length_m = 14;
    spec.seed = 313;
    return sim::make_scenario(spec, 999);
  }();
  return sc;
}

CallocConfig fast_cfg(std::uint64_t seed = 71) {
  CallocConfig cfg;
  cfg.seed = seed;
  cfg.num_lessons = 5;
  cfg.train.max_epochs_per_lesson = 6;
  return cfg;
}

TEST(Calloc, FitPredictEndToEnd) {
  Calloc model(fast_cfg());
  model.fit(scenario().train);
  const auto& test = scenario().device_tests.back();  // OP3
  const auto stats = eval::evaluate_clean(model, test);
  EXPECT_LT(stats.error_m.mean, 2.0) << "clean mean error too high";
  EXPECT_EQ(model.name(), "CALLOC");
  EXPECT_NE(model.gradient_source(), nullptr);
}

TEST(Calloc, ReportCoversEveryLesson) {
  Calloc model(fast_cfg());
  model.fit(scenario().train);
  EXPECT_EQ(model.report().lessons.size(), 5u);
  EXPECT_GT(model.report().total_epochs, 0u);
}

TEST(Calloc, PredictBeforeFitThrows) {
  Calloc model(fast_cfg());
  EXPECT_THROW(model.predict(Tensor({1, 24})), PreconditionError);
  EXPECT_THROW(model.report(), PreconditionError);
  EXPECT_THROW(model.model(), PreconditionError);
}

TEST(Calloc, ConfigValidation) {
  CallocConfig cfg;
  cfg.num_lessons = 1;
  EXPECT_THROW(Calloc{cfg}, PreconditionError);
  cfg = CallocConfig{};
  cfg.train_epsilon = 2.0;
  EXPECT_THROW(Calloc{cfg}, PreconditionError);
}

TEST(Calloc, NcVariantUsesSingleLesson) {
  auto cfg = fast_cfg();
  cfg.use_curriculum = false;
  Calloc nc(cfg);
  EXPECT_EQ(nc.name(), "CALLOC-NC");
  nc.fit(scenario().train);
  EXPECT_EQ(nc.report().lessons.size(), 1u);
}

TEST(Calloc, RobustnessHeadline) {
  // The paper's core claim at test scale: under a strong unseen attack,
  // curriculum-trained CALLOC localises better than an undefended DNN
  // attacked with its own exact gradients.
  Calloc calloc_model(fast_cfg(5));
  calloc_model.fit(scenario().train);

  auto dnn = eval::make_framework("DNN", 5, /*fast=*/true);
  dnn->fit(scenario().train);

  const auto& test = scenario().device_tests[1];  // HTC (cross-device)
  attacks::AttackConfig atk;
  atk.epsilon = 0.3;
  atk.phi_percent = 60.0;
  const auto calloc_attacked = eval::evaluate_under_attack(
      calloc_model, test, attacks::AttackKind::Fgsm, atk,
      *calloc_model.gradient_source());
  const auto dnn_attacked = eval::evaluate_under_attack(
      *dnn, test, attacks::AttackKind::Fgsm, atk, *dnn->gradient_source());

  EXPECT_LT(calloc_attacked.error_m.mean, dnn_attacked.error_m.mean)
      << "CALLOC should beat an undefended DNN under FGSM";
}

TEST(Calloc, RobustToUnseenIterativeAttacks) {
  // Trained only on FGSM lessons, CALLOC must remain usable under PGD
  // (paper: "does not require exposure to PGD/MIM during training").
  Calloc model(fast_cfg(6));
  model.fit(scenario().train);
  const auto& test = scenario().device_tests.back();
  attacks::AttackConfig atk;
  atk.epsilon = 0.2;
  atk.phi_percent = 50.0;
  atk.num_steps = 8;
  const auto pgd = eval::evaluate_under_attack(
      model, test, attacks::AttackKind::Pgd, atk, *model.gradient_source());
  const auto clean = eval::evaluate_clean(model, test);
  // Under attack the error grows, but stays within a sane envelope of the
  // building diagonal (not a collapse to random guessing ~ half the path).
  EXPECT_LT(pgd.error_m.mean, clean.error_m.mean + 5.0);
}

TEST(Calloc, DeterministicForSameSeed) {
  Calloc a(fast_cfg(17));
  Calloc b(fast_cfg(17));
  a.fit(scenario().train);
  b.fit(scenario().train);
  const auto& test = scenario().device_tests.back();
  EXPECT_EQ(a.predict(test.normalized()), b.predict(test.normalized()));
}

TEST(Calloc, WeightPersistenceRoundTrip) {
  // Train once, deploy twice: a fresh Calloc restored from disk must give
  // identical predictions without re-running the curriculum.
  Calloc trained(fast_cfg(23));
  trained.fit(scenario().train);
  const auto path = std::string("/tmp/cal_calloc_weights.bin");
  trained.save_weights(path);

  Calloc restored(fast_cfg(23));
  restored.load_weights(path, scenario().train);
  const auto& test = scenario().device_tests[3];
  EXPECT_EQ(trained.predict(test.normalized()),
            restored.predict(test.normalized()));
  EXPECT_NE(restored.gradient_source(), nullptr);
  std::remove(path.c_str());

  Calloc unfitted(fast_cfg());
  EXPECT_THROW(unfitted.save_weights("/tmp/nope.bin"), PreconditionError);
}

// The frozen query half Calloc built at fit/load time (logits(), what
// predict() runs) must reproduce forward()'s logits byte for byte, and
// predict() must agree with the full autograd forward on every row.
// Batches of 1-7 rows cover every small-row GEMM tail height.
void expect_predict_matches_forward(Calloc& calloc_model) {
  CallocModel& m = calloc_model.model();
  const Tensor pool = scenario().train.normalized();
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 32u}) {
    SCOPED_TRACE("batch of " + std::to_string(rows));
    ASSERT_GE(pool.rows(), rows);
    std::vector<std::size_t> idx(rows);
    std::iota(idx.begin(), idx.end(), 0);
    const Tensor x = nn::gather_rows(pool, idx);
    const Tensor full = nn::predict_tensor(m, x);
    const Tensor served = calloc_model.logits(x);
    ASSERT_TRUE(served.same_shape(full));
    EXPECT_EQ(std::memcmp(served.data(), full.data(),
                          full.size() * sizeof(float)),
              0);
    EXPECT_EQ(calloc_model.predict(x), autograd::argmax_rows(full));
  }
}

TEST(Calloc, PredictMatchesAutogradForward) {
  Calloc trained(fast_cfg(29));
  trained.fit(scenario().train);
  {
    SCOPED_TRACE("after fit()");
    expect_predict_matches_forward(trained);
  }

  // A replica first fitted with another seed holds that fit's keys until
  // load_weights() replaces them.
  const auto path = std::string("/tmp/cal_calloc_keys_weights.bin");
  trained.save_weights(path);
  Calloc replica(fast_cfg(31));
  replica.fit(scenario().train);
  replica.load_weights(path, scenario().train);
  std::remove(path.c_str());
  {
    SCOPED_TRACE("after load_weights()");
    expect_predict_matches_forward(replica);
  }
}

TEST(Calloc, ModelFootprintIsLightweight) {
  Calloc model(fast_cfg());
  model.fit(scenario().train);
  // The paper advertises a ~255 kB model; at this scale it must be far
  // smaller, and parameter accounting must stay consistent.
  EXPECT_LT(model.model().weight_bytes(), 300u * 1024u);
  EXPECT_EQ(model.model().parameter_count(),
            model.model().embedding_parameter_count() +
                model.model().attention_parameter_count() +
                model.model().classifier_parameter_count());
}

}  // namespace

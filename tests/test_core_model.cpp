// Unit tests: the CALLOC hyperspace-attention model.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "autograd/ops.hpp"
#include "common/ensure.hpp"
#include "core/calloc_model.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace cal;
using namespace cal::core;

CallocModelConfig small_cfg() {
  CallocModelConfig cfg;
  cfg.num_aps = 8;
  cfg.num_rps = 4;
  cfg.embed_dim = 16;
  cfg.attention_dim = 8;
  cfg.seed = 3;
  return cfg;
}

/// Anchors: one orthogonal-ish fingerprint per RP.
Tensor make_anchors() {
  Tensor a({4, 8});
  for (std::size_t r = 0; r < 4; ++r) {
    a.at(r, 2 * r) = 0.8F;
    a.at(r, 2 * r + 1) = 0.6F;
  }
  return a;
}

std::unique_ptr<CallocModel> make_model_ptr() {
  auto m = std::make_unique<CallocModel>(small_cfg());
  std::vector<std::size_t> labels(4);
  std::iota(labels.begin(), labels.end(), 0);
  m->set_anchors(make_anchors(), labels);
  return m;
}

TEST(CallocModel, ConfigValidation) {
  CallocModelConfig cfg = small_cfg();
  cfg.num_aps = 0;
  EXPECT_THROW(CallocModel{cfg}, PreconditionError);
  cfg = small_cfg();
  cfg.num_rps = 0;
  EXPECT_THROW(CallocModel{cfg}, PreconditionError);
}

TEST(CallocModel, ForwardRequiresAnchors) {
  CallocModel m(small_cfg());
  EXPECT_FALSE(m.has_anchors());
  EXPECT_THROW(m.forward(autograd::constant(Tensor({2, 8}))),
               PreconditionError);
}

TEST(CallocModel, AnchorValidation) {
  CallocModel m(small_cfg());
  const std::vector<std::size_t> labels{0, 1, 2, 3};
  EXPECT_THROW(m.set_anchors(Tensor({4, 5}), labels), PreconditionError);
  const std::vector<std::size_t> bad_labels{0, 1, 2, 9};
  EXPECT_THROW(m.set_anchors(make_anchors(), bad_labels),
               PreconditionError);
}

TEST(CallocModel, ForwardShape) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  m.set_training(false);
  auto out = m.forward(autograd::constant(Tensor({3, 8}, 0.2F)));
  EXPECT_EQ(out->value().rows(), 3u);
  EXPECT_EQ(out->value().cols(), 4u);
  EXPECT_EQ(m.num_anchors(), 4u);
}

TEST(CallocModel, ParameterBreakdownSumsToTotal) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  const auto total = m.parameter_count();
  EXPECT_EQ(total, m.embedding_parameter_count() +
                       m.attention_parameter_count() +
                       m.classifier_parameter_count());
  // Embeddings: 2 * (8*16 + 16); attention: 2 * (16*8 + 8) + 1 (temp);
  // head: 4*4 + 4.
  EXPECT_EQ(m.embedding_parameter_count(), 2u * (8 * 16 + 16));
  EXPECT_EQ(m.attention_parameter_count(), 2u * (16 * 8 + 8) + 1);
  EXPECT_EQ(m.classifier_parameter_count(), 4u * 4 + 4);
}

TEST(CallocModel, PaperScaleParameterAudit) {
  // At the paper's published configuration the embedding layers carry
  // 42,496 trainable parameters (matching §V.A exactly for 165 APs), and
  // the whole model stays within the paper's "lightweight" envelope.
  CallocModelConfig cfg;
  cfg.num_aps = 165;
  cfg.num_rps = 61;
  CallocModel m(cfg);
  EXPECT_EQ(m.embedding_parameter_count(), 42496u);
  EXPECT_EQ(m.classifier_parameter_count(), 61u * 61 + 61);  // 3,782
  EXPECT_LT(m.parameter_count(), 70000u);
}

TEST(CallocModel, AttentionWeightsAreDistributions) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  m.set_training(false);
  Tensor x({5, 8}, 0.1F);
  x.at(0, 0) = 0.9F;
  const Tensor w = m.attention_weights(x);
  EXPECT_EQ(w.rows(), 5u);
  EXPECT_EQ(w.cols(), 4u);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < w.cols(); ++j) {
      EXPECT_GE(w.at(i, j), 0.0F);
      sum += w.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(CallocModel, SiameseInitAttendsToMatchingAnchor) {
  // A query equal to an anchor fingerprint must put its highest initial
  // attention weight on that anchor — the warm start that makes the
  // architecture trainable (DESIGN.md §6).
  auto mp = make_model_ptr();
  auto& m = *mp;
  m.set_training(false);
  const Tensor anchors = make_anchors();
  const Tensor w = m.attention_weights(anchors);
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < 4; ++j)
      if (w.at(i, j) > w.at(i, best)) best = j;
    EXPECT_EQ(best, i) << "anchor " << i << " does not attend to itself";
  }
}

TEST(CallocModel, HyperspacesHaveEmbedDim) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  auto hc = m.hyperspace_curriculum(autograd::constant(Tensor({2, 8})));
  auto ho = m.hyperspace_original(autograd::constant(Tensor({2, 8})));
  EXPECT_EQ(hc->value().cols(), 16u);
  EXPECT_EQ(ho->value().cols(), 16u);
}

TEST(CallocModel, TrainingModeTogglesAugmentation) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  const Tensor x({4, 8}, 0.5F);
  m.set_training(false);
  const auto eval1 = m.hyperspace_original(autograd::constant(x))->value();
  const auto eval2 = m.hyperspace_original(autograd::constant(x))->value();
  EXPECT_TRUE(allclose(eval1, eval2));  // eval is deterministic
  m.set_training(true);
  const auto train1 = m.hyperspace_original(autograd::constant(x))->value();
  EXPECT_FALSE(allclose(train1, eval1));  // augmentation active
}

TEST(CallocModel, GradientsReachAllParameters) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  m.set_training(false);
  const std::vector<std::size_t> y{0, 1, 2, 3};
  auto logits = m.forward(autograd::constant(make_anchors()));
  auto loss = autograd::cross_entropy(logits, y);
  autograd::backward(loss);
  for (const auto& p : m.parameters()) {
    float norm = 0.0F;
    for (std::size_t i = 0; i < p.var->grad().size(); ++i)
      norm += std::abs(p.var->grad()[i]);
    EXPECT_GT(norm, 0.0F) << "no gradient reached " << p.name;
  }
}

TEST(CallocModel, SaveLoadRoundTrip) {
  auto ap = make_model_ptr();
  auto& a = *ap;
  CallocModel b(small_cfg());
  std::vector<std::size_t> labels{0, 1, 2, 3};
  b.set_anchors(make_anchors(), labels);
  // Perturb b so the round trip is meaningful.
  b.parameters()[0].var->mutable_value().fill(0.5F);

  std::stringstream blob;
  a.save_weights(blob);
  b.load_weights(blob);
  a.set_training(false);
  b.set_training(false);
  const Tensor x({3, 8}, 0.3F);
  EXPECT_TRUE(allclose(nn::predict_tensor(a, x), nn::predict_tensor(b, x)));
}

TEST(CallocModel, OvertfitsTinyProblem) {
  auto mp = make_model_ptr();
  auto& m = *mp;
  // Train to classify the anchors themselves.
  const Tensor x = make_anchors();
  const std::vector<std::size_t> y{0, 1, 2, 3};
  nn::Adam opt(m.parameters(), 1e-2F);
  m.set_training(false);  // no augmentation for this tiny check
  double first = 0.0;
  double last = 0.0;
  for (int e = 0; e < 60; ++e) {
    auto loss = autograd::cross_entropy(m.forward(autograd::constant(x)), y);
    if (e == 0) first = loss->value()[0];
    last = loss->value()[0];
    opt.zero_grad();
    autograd::backward(loss);
    opt.step();
  }
  EXPECT_LT(last, first * 0.5);
  const auto pred = autograd::argmax_rows(nn::predict_tensor(m, x));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(pred[i], y[i]);
}

TEST(CallocModel, AnchorLabelsRoundTripThroughSetAnchors) {
  auto m = make_model_ptr();
  const auto labels = m->anchor_labels();
  ASSERT_EQ(labels.size(), 4u);
  for (std::size_t i = 0; i < labels.size(); ++i) EXPECT_EQ(labels[i], i);

  CallocModel fresh(small_cfg());
  EXPECT_THROW(fresh.anchor_labels(), PreconditionError);
}

}  // namespace

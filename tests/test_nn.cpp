// Unit tests: layers, optimisers, trainer, weight IO.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/ensure.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/prototype_attention.hpp"
#include "nn/regularizers.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace cal;
using namespace cal::nn;

TEST(Linear, ShapesAndParameterCount) {
  Rng rng(1);
  Linear fc(5, 3, rng);
  EXPECT_EQ(fc.parameter_count(), 5u * 3u + 3u);
  auto out = fc.forward(autograd::constant(Tensor({2, 5})));
  EXPECT_EQ(out->value().rows(), 2u);
  EXPECT_EQ(out->value().cols(), 3u);
  EXPECT_THROW(fc.forward(autograd::constant(Tensor({2, 4}))),
               PreconditionError);
}

TEST(Init, XavierBoundsAndHeVariance) {
  Rng rng(2);
  auto w = xavier_uniform(100, 50, rng);
  const float bound = std::sqrt(6.0F / 150.0F);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -bound);
    EXPECT_LE(w[i], bound);
  }
  auto h = he_normal(200, 50, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) sq += h[i] * h[i];
  EXPECT_NEAR(sq / static_cast<double>(h.size()), 2.0 / 200.0, 0.002);
}

TEST(Conv1d, OutputGeometry) {
  Rng rng(3);
  Conv1d conv(10, 3, 4, 2, rng);
  EXPECT_EQ(conv.output_len(), 4u);  // (10-3)/2+1
  EXPECT_EQ(conv.output_features(), 16u);
  auto out = conv.forward(autograd::constant(Tensor({5, 10})));
  EXPECT_EQ(out->value().rows(), 5u);
  EXPECT_EQ(out->value().cols(), 16u);
}

TEST(Conv1d, MatchesHandComputedConvolution) {
  Rng rng(4);
  Conv1d conv(4, 2, 1, 1, rng);
  // Overwrite weights for a deterministic check: kernel [1, -1], bias 0.5.
  auto params = conv.parameters();
  params[0].var->mutable_value()[0] = 1.0F;
  params[0].var->mutable_value()[1] = -1.0F;
  params[1].var->mutable_value()[0] = 0.5F;
  auto out = conv.forward(
      autograd::constant(Tensor::from_rows({{1.0F, 3.0F, 2.0F, 2.0F}})));
  // windows: (1-3)+0.5, (3-2)+0.5, (2-2)+0.5
  EXPECT_FLOAT_EQ(out->value().at(0, 0), -1.5F);
  EXPECT_FLOAT_EQ(out->value().at(0, 1), 1.5F);
  EXPECT_FLOAT_EQ(out->value().at(0, 2), 0.5F);
}

TEST(Conv1d, GradientFlowsToInput) {
  Rng rng(5);
  Conv1d conv(6, 3, 2, 1, rng);
  auto leaf = autograd::make_leaf(Tensor({2, 6}, 0.5F), true);
  auto loss = autograd::mean_all(conv.forward(leaf));
  autograd::backward(loss);
  float grad_norm = 0.0F;
  for (std::size_t i = 0; i < leaf->grad().size(); ++i)
    grad_norm += std::fabs(leaf->grad()[i]);
  EXPECT_GT(grad_norm, 0.0F);
}

TEST(Regularizers, EvalModeIsIdentity) {
  Dropout drop(0.5F, Rng(6));
  GaussianNoise noise(0.3F, Rng(7));
  drop.set_training(false);
  noise.set_training(false);
  Tensor x({3, 3}, 1.0F);
  EXPECT_TRUE(allclose(drop.forward(autograd::constant(x))->value(), x));
  EXPECT_TRUE(allclose(noise.forward(autograd::constant(x))->value(), x));
}

TEST(Regularizers, TrainModePerturbs) {
  Dropout drop(0.5F, Rng(8));
  GaussianNoise noise(0.3F, Rng(9));
  Tensor x({10, 10}, 1.0F);
  const auto dropped = drop.forward(autograd::constant(x))->value();
  const auto noisy = noise.forward(autograd::constant(x))->value();
  EXPECT_FALSE(allclose(dropped, x));
  EXPECT_FALSE(allclose(noisy, x));
}

TEST(Sequential, ChainsAndPropagatesTraining) {
  Rng rng(10);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Dropout>(0.3F, rng.fork(1));
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.num_children(), 4u);
  EXPECT_EQ(net.parameter_count(), 4u * 8 + 8 + 8 * 2 + 2);
  net.set_training(false);
  auto out = net.forward(autograd::constant(Tensor({3, 4})));
  EXPECT_EQ(out->value().cols(), 2u);
}

TEST(PrototypeAttention, ShapesAndParams) {
  Rng rng(11);
  MultiHeadPrototypeAttention mha(12, 8, 2, 4, rng);
  EXPECT_EQ(mha.out_features(), 16u);
  auto out = mha.forward(autograd::constant(Tensor({5, 12})));
  EXPECT_EQ(out->value().rows(), 5u);
  EXPECT_EQ(out->value().cols(), 16u);
  // per head: wq (12*8+8) + protoK (4*8) + protoV (4*8); wo: 16*16+16.
  EXPECT_EQ(mha.parameter_count(), 2u * (12 * 8 + 8 + 64) + 16 * 16 + 16);
}

TEST(PrototypeAttention, InputGradientMatchesFiniteDifferences) {
  // Central differences, as check_gradient in test_autograd.cpp takes
  // them, against the two gradients of the multi-head module that matter:
  // the input gradient (what ANVIL's ModuleGradientSource hands FGSM and
  // PGD) and one head's W_q (what training steps). The loss squares the
  // output, so every output column weighs in with its own sign and scale.
  const std::size_t in = 5, hd = 3, heads = 3, protos = 4, rows = 2;
  Rng rng(77);
  MultiHeadPrototypeAttention mha(in, hd, heads, protos, rng);
  Rng data_rng(5005);
  const Tensor x0 = Tensor::randn({rows, in}, data_rng, 1.0F);
  const auto loss_of = [&mha](const autograd::Var& x) {
    const auto out = mha.forward(x);
    return autograd::sum_all(autograd::mul(out, out));
  };

  autograd::Var wq;
  for (const auto& p : mha.parameters())
    if (p.name == "mha.h1.wq.weight") wq = p.var;
  ASSERT_NE(wq, nullptr);
  auto xin = autograd::make_leaf(x0, true);
  autograd::backward(loss_of(xin));

  const float eps = 1e-2F;
  const auto expect_matches = [&](const Tensor& analytic, Tensor& point,
                                  const autograd::Var& x, const char* what) {
    for (std::size_t i = 0; i < point.size(); ++i) {
      const float saved = point[i];
      point[i] = saved + eps;
      const float fp = loss_of(x)->value()[0];
      point[i] = saved - eps;
      const float fm = loss_of(x)->value()[0];
      point[i] = saved;
      const float numeric = (fp - fm) / (2.0F * eps);
      EXPECT_NEAR(analytic[i], numeric, 2e-4F + 2e-3F * std::fabs(numeric))
          << what << " gradient mismatch at flat index " << i;
    }
  };
  const auto xc = autograd::constant(x0);
  expect_matches(xin->grad(), xc->mutable_value(), xc, "input");
  expect_matches(wq->grad(), wq->mutable_value(), autograd::constant(x0),
                 "W_q");
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  auto param = autograd::make_leaf(Tensor({1, 4}, -3.0F), true);
  const Tensor target({1, 4}, 2.0F);
  Adam opt({{"x", param}}, 0.2F);
  for (int i = 0; i < 200; ++i) {
    auto loss = autograd::mse_loss(param, target);
    opt.zero_grad();
    autograd::backward(loss);
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(param->value()[i], 2.0F, 1e-2F);
}

TEST(Optimizer, RejectsGradlessParameters) {
  auto c = autograd::constant(Tensor({1}));
  EXPECT_THROW(Adam({{"c", c}}, 0.1F), PreconditionError);
}

/// Build a small two-blob classification problem.
struct Blobs {
  Tensor x;
  std::vector<std::size_t> y;
};

Blobs make_blobs(std::size_t n_per_class, std::uint64_t seed) {
  Rng rng(seed);
  Blobs b;
  b.x = Tensor({2 * n_per_class, 3});
  for (std::size_t i = 0; i < 2 * n_per_class; ++i) {
    const std::size_t cls = i < n_per_class ? 0 : 1;
    const float center = cls == 0 ? -1.0F : 1.0F;
    for (std::size_t j = 0; j < 3; ++j)
      b.x.at(i, j) = center + static_cast<float>(rng.normal(0.0, 0.3));
    b.y.push_back(cls);
  }
  return b;
}

TEST(Trainer, LearnsSeparableBlobs) {
  Rng rng(12);
  Sequential net;
  net.emplace<Linear>(3, 16, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(16, 2, rng);
  const auto blobs = make_blobs(40, 13);
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.seed = 14;
  const auto hist = fit_classifier(net, blobs.x, blobs.y, cfg);
  EXPECT_FALSE(hist.train_loss.empty());
  EXPECT_LT(hist.train_loss.back(), hist.train_loss.front());
  EXPECT_GT(evaluate_accuracy(net, blobs.x, blobs.y), 0.95);
}

TEST(Trainer, EarlyStoppingTriggersAndRestoresBest) {
  Rng rng(15);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<Linear>(4, 2, rng);
  // Unlearnable random labels: validation loss can only fluctuate, so the
  // patience counter must fire long before the epoch budget.
  auto blobs = make_blobs(20, 16);
  Rng label_rng(99);
  for (auto& y : blobs.y) y = label_rng.uniform_index(2);
  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.early_stop_patience = 3;
  cfg.validation_fraction = 0.3;
  cfg.seed = 17;
  const auto hist = fit_classifier(net, blobs.x, blobs.y, cfg);
  EXPECT_TRUE(hist.early_stopped);
  EXPECT_LT(hist.train_loss.size(), 200u);
  EXPECT_LE(hist.best_epoch, hist.train_loss.size());
}

TEST(Trainer, RegressionReducesMse) {
  Rng rng(18);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(8, 4, rng);
  Tensor x = Tensor::randn({60, 4}, rng, 1.0F);
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.seed = 19;
  const auto hist = fit_regression(net, x, x, cfg);  // autoencode identity
  EXPECT_LT(hist.train_loss.back(), hist.train_loss.front());
}

TEST(Trainer, LabelMismatchThrows) {
  Rng rng(20);
  Sequential net;
  net.emplace<Linear>(3, 2, rng);
  Tensor x({10, 3});
  const std::vector<std::size_t> y{0, 1};  // wrong size
  EXPECT_THROW(fit_classifier(net, x, y, TrainConfig{}), PreconditionError);
}

TEST(Module, SnapshotRestoreRoundTrip) {
  Rng rng(21);
  Linear fc(3, 3, rng);
  const auto snap = fc.snapshot_weights();
  fc.weight()->mutable_value().fill(0.0F);
  fc.restore_weights(snap);
  EXPECT_TRUE(allclose(fc.weight()->value(), snap[0]));
}

TEST(Module, SaveLoadWeightsRoundTrip) {
  Rng rng(22);
  Sequential a;
  a.emplace<Linear>(4, 5, rng);
  a.emplace<Linear>(5, 2, rng);
  Rng rng2(23);
  Sequential b;
  b.emplace<Linear>(4, 5, rng2);
  b.emplace<Linear>(5, 2, rng2);

  std::stringstream blob;
  a.save_weights(blob);
  b.load_weights(blob);
  // The serving layer deploys one trained artefact into per-worker
  // replicas and promises bit-identical predictions, so the round trip
  // must be float-exact, not merely close.
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].var->value();
    const Tensor& tb = pb[i].var->value();
    ASSERT_TRUE(ta.same_shape(tb));
    for (std::size_t j = 0; j < ta.size(); ++j)
      EXPECT_EQ(ta[j], tb[j]) << pa[i].name << "[" << j << "]";
  }
  const Tensor x = Tensor::randn({3, 4}, rng, 1.0F);
  EXPECT_TRUE(allclose(predict_tensor(a, x), predict_tensor(b, x)));
  EXPECT_EQ(a.weight_bytes(),
            sizeof(std::uint64_t) * 5 + a.parameter_count() * sizeof(float));
}

TEST(Module, LoadRejectsTruncatedBlob) {
  Rng rng(25);
  Linear a(3, 4, rng);
  Linear b(3, 4, rng);
  std::stringstream blob;
  a.save_weights(blob);
  const std::string full = blob.str();
  // Cutting the payload anywhere must throw, never load garbage.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(b.load_weights(truncated), PreconditionError);
  std::stringstream empty;
  EXPECT_THROW(b.load_weights(empty), PreconditionError);
}

TEST(Module, LoadRejectsWrongShape) {
  Rng rng(24);
  Linear small(2, 2, rng);
  Linear big(4, 4, rng);
  std::stringstream blob;
  small.save_weights(blob);
  EXPECT_THROW(big.load_weights(blob), PreconditionError);
}

TEST(GatherRows, SelectsAndValidates) {
  auto x = Tensor::from_rows({{1.0F, 2.0F}, {3.0F, 4.0F}, {5.0F, 6.0F}});
  const std::vector<std::size_t> idx{2, 0};
  auto g = gather_rows(x, idx);
  EXPECT_EQ(g.at(0, 0), 5.0F);
  EXPECT_EQ(g.at(1, 1), 2.0F);
  const std::vector<std::size_t> bad{9};
  EXPECT_THROW(gather_rows(x, bad), PreconditionError);
}

}  // namespace

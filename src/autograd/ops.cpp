#include "autograd/ops.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "kernels/gemm.hpp"

namespace cal::autograd {
namespace {

/// Create an op node wired to its parents; requires_grad is inherited.
Var make_op(Tensor value, std::string name, std::initializer_list<Var> parents) {
  bool req = false;
  for (const auto& p : parents) {
    CAL_ENSURE(p != nullptr, "null parent passed to op " << name);
    req = req || p->requires_grad();
  }
  auto node = std::make_shared<Node>(std::move(value), req, std::move(name));
  for (const auto& p : parents) node->add_parent(p);
  return node;
}

}  // namespace

Var matmul(const Var& a, const Var& b) {
  const Tensor out = a->value().matmul(b->value());
  Var node = make_op(out, "matmul", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb] {
      // dA = g·Bᵀ and dB = Aᵀ·g via the fused-transpose kernels,
      // accumulated straight into the grad buffers: no transposed() copy
      // and no temporary product per backward step.
      const Tensor& g = self->grad();
      const Tensor& av = pa->value();
      const Tensor& bv = pb->value();
      const std::size_t m = av.rows();
      const std::size_t k = av.cols();
      const std::size_t n = bv.cols();
      if (pa->requires_grad())
        kernels::gemm_nt(g.flat(), bv.flat(), pa->grad_buffer().flat(), m, n,
                         k, /*accumulate=*/true);
      if (pb->requires_grad())
        kernels::gemm_tn(av.flat(), g.flat(), pb->grad_buffer().flat(), k, m,
                         n, /*accumulate=*/true);
    });
  }
  return node;
}

Var matmul_nt(const Var& a, const Var& b) {
  const Tensor out = a->value().matmul_nt(b->value());
  Var node = make_op(out, "matmul_nt", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb] {
      // y = A·Bᵀ with A: MxD, B: NxD, g: MxN. dA = g·B, dB = gᵀ·A.
      const Tensor& g = self->grad();
      const Tensor& av = pa->value();
      const Tensor& bv = pb->value();
      const std::size_t m = av.rows();
      const std::size_t d = av.cols();
      const std::size_t n = bv.rows();
      if (pa->requires_grad())
        kernels::gemm_nn(g.flat(), bv.flat(), pa->grad_buffer().flat(), m, n,
                         d, /*accumulate=*/true);
      if (pb->requires_grad())
        kernels::gemm_tn(g.flat(), av.flat(), pb->grad_buffer().flat(), n, m,
                         d, /*accumulate=*/true);
    });
  }
  return node;
}

Var add(const Var& a, const Var& b) {
  Var node = make_op(a->value() + b->value(), "add", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g;
      if (pb->requires_grad()) pb->grad_buffer() += g;
    });
  }
  return node;
}

Var add_rowwise(const Var& a, const Var& bias) {
  const Tensor& av = a->value();
  const Tensor& bv = bias->value();
  CAL_ENSURE(av.rank() == 2, "add_rowwise expects rank-2 lhs");
  CAL_ENSURE(bv.rank() == 1 && bv.size() == av.cols(),
             "bias must be rank-1 of length cols: " << bv.shape_str()
                                                    << " vs " << av.shape_str());
  Tensor out = av;
  for (std::size_t i = 0; i < av.rows(); ++i) {
    float* row = out.data() + i * av.cols();
    for (std::size_t j = 0; j < av.cols(); ++j) row[j] += bv[j];
  }
  Var node = make_op(std::move(out), "add_rowwise", {a, bias});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pbias = bias.get();
    node->set_backward([self, pa, pbias] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g;
      if (pbias->requires_grad()) {
        Tensor& bg = pbias->grad_buffer();
        for (std::size_t i = 0; i < g.rows(); ++i) {
          const float* row = g.data() + i * g.cols();
          for (std::size_t j = 0; j < g.cols(); ++j) bg[j] += row[j];
        }
      }
    });
  }
  return node;
}

Var sub_rowwise(const Var& a, const Var& v) {
  const Tensor& av = a->value();
  const Tensor& vv = v->value();
  CAL_ENSURE(av.rank() == 2, "sub_rowwise expects rank-2 lhs");
  CAL_ENSURE(vv.rank() == 1 && vv.size() == av.cols(),
             "vector must be rank-1 of length cols");
  Tensor out = av;
  for (std::size_t i = 0; i < av.rows(); ++i) {
    float* row = out.data() + i * av.cols();
    for (std::size_t j = 0; j < av.cols(); ++j) row[j] -= vv[j];
  }
  Var node = make_op(std::move(out), "sub_rowwise", {a, v});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pv = v.get();
    node->set_backward([self, pa, pv] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g;
      if (pv->requires_grad()) {
        Tensor& gv = pv->grad_buffer();
        for (std::size_t i = 0; i < g.rows(); ++i) {
          const float* row = g.data() + i * g.cols();
          for (std::size_t j = 0; j < g.cols(); ++j) gv[j] -= row[j];
        }
      }
    });
  }
  return node;
}

Var mean_over_rows(const Var& a) {
  const Tensor& av = a->value();
  CAL_ENSURE(av.rank() == 2, "mean_over_rows expects rank-2");
  const std::size_t rows = av.rows();
  const std::size_t cols = av.cols();
  Tensor out({cols});
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = av.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
  const float inv = 1.0F / static_cast<float>(rows);
  for (std::size_t j = 0; j < cols; ++j) out[j] *= inv;
  Var node = make_op(std::move(out), "mean_over_rows", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa, rows, cols] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      Tensor& ga = pa->grad_buffer();
      const float inv = 1.0F / static_cast<float>(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        float* row = ga.data() + i * cols;
        for (std::size_t j = 0; j < cols; ++j) row[j] += g[j] * inv;
      }
    });
  }
  return node;
}

Var sub(const Var& a, const Var& b) {
  Var node = make_op(a->value() - b->value(), "sub", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g;
      if (pb->requires_grad()) pb->grad_buffer() -= g;
    });
  }
  return node;
}

Var mul(const Var& a, const Var& b) {
  Var node = make_op(a->value() * b->value(), "mul", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g * pb->value();
      if (pb->requires_grad()) pb->grad_buffer() += g * pa->value();
    });
  }
  return node;
}

Var scale(const Var& a, float s) {
  Var node = make_op(a->value() * s, "scale", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa, s] {
      if (pa->requires_grad()) pa->grad_buffer() += self->grad() * s;
    });
  }
  return node;
}

Var transpose(const Var& a) {
  Var node = make_op(a->value().transposed(), "transpose", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (pa->requires_grad()) pa->grad_buffer() += self->grad().transposed();
    });
  }
  return node;
}

Var concat_cols(const Var& a, const Var& b) {
  const Tensor& av = a->value();
  const Tensor& bv = b->value();
  CAL_ENSURE(av.rank() == 2 && bv.rank() == 2, "concat_cols expects rank-2");
  CAL_ENSURE(av.rows() == bv.rows(), "concat_cols row mismatch: "
                                         << av.shape_str() << " vs "
                                         << bv.shape_str());
  const std::size_t rows = av.rows();
  const std::size_t ca = av.cols();
  const std::size_t cb = bv.cols();
  Tensor out({rows, ca + cb});
  for (std::size_t i = 0; i < rows; ++i) {
    float* orow = out.data() + i * (ca + cb);
    const float* arow = av.data() + i * ca;
    const float* brow = bv.data() + i * cb;
    for (std::size_t j = 0; j < ca; ++j) orow[j] = arow[j];
    for (std::size_t j = 0; j < cb; ++j) orow[ca + j] = brow[j];
  }
  Var node = make_op(std::move(out), "concat_cols", {a, b});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* pb = b.get();
    node->set_backward([self, pa, pb, rows, ca, cb] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) {
        Tensor& ga = pa->grad_buffer();
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < ca; ++j)
            ga.data()[i * ca + j] += g.data()[i * (ca + cb) + j];
      }
      if (pb->requires_grad()) {
        Tensor& gb = pb->grad_buffer();
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cb; ++j)
            gb.data()[i * cb + j] += g.data()[i * (ca + cb) + ca + j];
      }
    });
  }
  return node;
}

Var reshape(const Var& a, std::vector<std::size_t> new_shape) {
  Tensor out = a->value();
  out.reshape(new_shape);
  Var node = make_op(std::move(out), "reshape", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      Tensor g = self->grad();
      g.reshape(pa->value().shape());
      pa->grad_buffer() += g;
    });
  }
  return node;
}

Var relu(const Var& a) {
  Tensor out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] < 0.0F) out[i] = 0.0F;
  Var node = make_op(std::move(out), "relu", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      const Tensor& x = pa->value();
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < g.size(); ++i)
        if (x[i] > 0.0F) ga[i] += g[i];
    });
  }
  return node;
}

Var tanh_op(const Var& a) {
  Tensor out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(out[i]);
  Var node = make_op(std::move(out), "tanh", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      const Tensor& y = self->value();
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < g.size(); ++i)
        ga[i] += g[i] * (1.0F - y[i] * y[i]);
    });
  }
  return node;
}

Var sigmoid(const Var& a) {
  Tensor out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = 1.0F / (1.0F + std::exp(-out[i]));
  Var node = make_op(std::move(out), "sigmoid", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      const Tensor& y = self->value();
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < g.size(); ++i)
        ga[i] += g[i] * y[i] * (1.0F - y[i]);
    });
  }
  return node;
}

Var softmax_rows(const Var& a) {
  Tensor out = softmax_rows_tensor(a->value());
  Var node = make_op(std::move(out), "softmax_rows", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      const Tensor& y = self->value();
      Tensor& ga = pa->grad_buffer();
      const std::size_t rows = y.rows();
      const std::size_t cols = y.cols();
      for (std::size_t i = 0; i < rows; ++i) {
        const float* yr = y.data() + i * cols;
        const float* gr = g.data() + i * cols;
        float dot = 0.0F;
        for (std::size_t j = 0; j < cols; ++j) dot += yr[j] * gr[j];
        float* gar = ga.data() + i * cols;
        for (std::size_t j = 0; j < cols; ++j)
          gar[j] += yr[j] * (gr[j] - dot);
      }
    });
  }
  return node;
}

Var l2_normalize_rows(const Var& a, float eps) {
  const Tensor& x = a->value();
  CAL_ENSURE(x.rank() == 2, "l2_normalize_rows expects rank-2");
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  Tensor out = x;
  std::vector<float> norms(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* xr = x.data() + i * cols;
    float sq = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) sq += xr[j] * xr[j];
    norms[i] = std::max(std::sqrt(sq), eps);
    float* orow = out.data() + i * cols;
    const float inv = 1.0F / norms[i];
    for (std::size_t j = 0; j < cols; ++j) orow[j] *= inv;
  }
  Var node = make_op(std::move(out), "l2_normalize_rows", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    auto shared_norms = std::make_shared<std::vector<float>>(std::move(norms));
    node->set_backward([self, pa, shared_norms, rows, cols] {
      if (!pa->requires_grad()) return;
      const Tensor& g = self->grad();
      const Tensor& y = self->value();
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < rows; ++i) {
        const float* gr = g.data() + i * cols;
        const float* yr = y.data() + i * cols;
        float* gar = ga.data() + i * cols;
        float dot = 0.0F;
        for (std::size_t j = 0; j < cols; ++j) dot += gr[j] * yr[j];
        const float inv = 1.0F / (*shared_norms)[i];
        for (std::size_t j = 0; j < cols; ++j)
          gar[j] += (gr[j] - yr[j] * dot) * inv;
      }
    });
  }
  return node;
}

Var scale_by(const Var& a, const Var& s) {
  CAL_ENSURE(s->value().size() == 1, "scale_by expects a scalar Var");
  const float sv = s->value()[0];
  Var node = make_op(a->value() * sv, "scale_by", {a, s});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    Node* ps = s.get();
    node->set_backward([self, pa, ps, sv] {
      const Tensor& g = self->grad();
      if (pa->requires_grad()) pa->grad_buffer() += g * sv;
      if (ps->requires_grad()) {
        const Tensor& x = pa->value();
        double acc = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i)
          acc += static_cast<double>(g[i]) * x[i];
        ps->grad_buffer()[0] += static_cast<float>(acc);
      }
    });
  }
  return node;
}

Var dropout(const Var& a, float rate, Rng& rng, bool training) {
  CAL_ENSURE(rate >= 0.0F && rate < 1.0F, "dropout rate must be in [0,1): "
                                              << rate);
  if (!training || rate == 0.0F) {
    // Identity pass-through node (keeps graph structure uniform).
    Var node = make_op(a->value(), "dropout(eval)", {a});
    if (node->requires_grad()) {
      Node* self = node.get();
      Node* pa = a.get();
      node->set_backward([self, pa] {
        if (pa->requires_grad()) pa->grad_buffer() += self->grad();
      });
    }
    return node;
  }
  const float keep = 1.0F - rate;
  const float inv_keep = 1.0F / keep;
  Tensor mask(a->value().shape());
  Tensor out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool keep_it = rng.bernoulli(keep);
    mask[i] = keep_it ? inv_keep : 0.0F;
    out[i] *= mask[i];
  }
  Var node = make_op(std::move(out), "dropout", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    auto shared_mask = std::make_shared<Tensor>(std::move(mask));
    node->set_backward([self, pa, shared_mask] {
      if (pa->requires_grad()) pa->grad_buffer() += self->grad() * *shared_mask;
    });
  }
  return node;
}

Var gaussian_noise(const Var& a, float sigma, Rng& rng, bool training) {
  CAL_ENSURE(sigma >= 0.0F, "gaussian_noise sigma must be >= 0: " << sigma);
  Tensor out = a->value();
  if (training && sigma > 0.0F) {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += static_cast<float>(rng.normal(0.0, sigma));
  }
  Var node = make_op(std::move(out), "gaussian_noise", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (pa->requires_grad()) pa->grad_buffer() += self->grad();
    });
  }
  return node;
}

Var mean_all(const Var& a) {
  const double s = a->value().sum();
  const std::size_t n = a->value().size();
  Tensor out({1});
  out[0] = static_cast<float>(s / static_cast<double>(n));
  Var node = make_op(std::move(out), "mean_all", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa, n] {
      if (!pa->requires_grad()) return;
      const float g = self->grad()[0] / static_cast<float>(n);
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < ga.size(); ++i) ga[i] += g;
    });
  }
  return node;
}

Var sum_all(const Var& a) {
  Tensor out({1});
  out[0] = static_cast<float>(a->value().sum());
  Var node = make_op(std::move(out), "sum_all", {a});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pa = a.get();
    node->set_backward([self, pa] {
      if (!pa->requires_grad()) return;
      const float g = self->grad()[0];
      Tensor& ga = pa->grad_buffer();
      for (std::size_t i = 0; i < ga.size(); ++i) ga[i] += g;
    });
  }
  return node;
}

Var mse_loss(const Var& pred, const Tensor& target) {
  const Tensor& p = pred->value();
  CAL_ENSURE(p.same_shape(target), "mse_loss shape mismatch: "
                                       << p.shape_str() << " vs "
                                       << target.shape_str());
  const std::size_t n = p.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) - target[i];
    acc += d * d;
  }
  Tensor out({1});
  out[0] = static_cast<float>(acc / static_cast<double>(n));
  Var node = make_op(std::move(out), "mse_loss", {pred});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pp = pred.get();
    auto tgt = std::make_shared<Tensor>(target);
    node->set_backward([self, pp, tgt, n] {
      if (!pp->requires_grad()) return;
      const float g = self->grad()[0] * 2.0F / static_cast<float>(n);
      const Tensor& p = pp->value();
      Tensor& gp = pp->grad_buffer();
      for (std::size_t i = 0; i < n; ++i) gp[i] += g * (p[i] - (*tgt)[i]);
    });
  }
  return node;
}

Var cross_entropy(const Var& logits, std::span<const std::size_t> labels) {
  const Tensor& z = logits->value();
  CAL_ENSURE(z.rank() == 2, "cross_entropy expects rank-2 logits");
  CAL_ENSURE(labels.size() == z.rows(),
             "cross_entropy labels size " << labels.size() << " != batch "
                                          << z.rows());
  const std::size_t rows = z.rows();
  const std::size_t cols = z.cols();
  Tensor probs = softmax_rows_tensor(z);
  double loss = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    CAL_ENSURE(labels[i] < cols, "label " << labels[i] << " out of " << cols
                                          << " classes");
    const float p = std::max(probs.at(i, labels[i]), 1e-12F);
    loss -= std::log(static_cast<double>(p));
  }
  Tensor out({1});
  out[0] = static_cast<float>(loss / static_cast<double>(rows));
  Var node = make_op(std::move(out), "cross_entropy", {logits});
  if (node->requires_grad()) {
    Node* self = node.get();
    Node* pl = logits.get();
    auto shared_probs = std::make_shared<Tensor>(std::move(probs));
    std::vector<std::size_t> lbl(labels.begin(), labels.end());
    node->set_backward([self, pl, shared_probs, lbl, rows, cols] {
      if (!pl->requires_grad()) return;
      const float g = self->grad()[0] / static_cast<float>(rows);
      Tensor& gl = pl->grad_buffer();
      for (std::size_t i = 0; i < rows; ++i) {
        const float* pr = shared_probs->data() + i * cols;
        float* gr = gl.data() + i * cols;
        for (std::size_t j = 0; j < cols; ++j) gr[j] += g * pr[j];
        gr[lbl[i]] -= g;
      }
    });
  }
  return node;
}

Var scaled_dot_product_attention(const Var& q, const Var& k, const Var& v) {
  const Tensor& qv = q->value();
  const Tensor& kv = k->value();
  const Tensor& vv = v->value();
  CAL_ENSURE(qv.rank() == 2 && kv.rank() == 2 && vv.rank() == 2,
             "attention expects rank-2 Q/K/V");
  CAL_ENSURE(qv.cols() == kv.cols(),
             "Q and K feature dims differ: " << qv.shape_str() << " vs "
                                             << kv.shape_str());
  CAL_ENSURE(kv.rows() == vv.rows(),
             "K and V row counts differ: " << kv.shape_str() << " vs "
                                           << vv.shape_str());
  const float inv_sqrt_dk =
      1.0F / std::sqrt(static_cast<float>(qv.cols()));
  // Fused QKᵀ: no transpose node, no K copy.
  Var scores = scale(matmul_nt(q, k), inv_sqrt_dk);
  Var weights = softmax_rows(scores);
  return matmul(weights, v);
}

std::vector<std::size_t> argmax_rows(const Tensor& t) {
  CAL_ENSURE(t.rank() == 2, "argmax_rows expects rank-2");
  std::vector<std::size_t> out(t.rows());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const float* row = t.data() + i * t.cols();
    std::size_t best = 0;
    for (std::size_t j = 1; j < t.cols(); ++j)
      if (row[j] > row[best]) best = j;
    out[i] = best;
  }
  return out;
}

Tensor softmax_rows_tensor(const Tensor& t) {
  CAL_ENSURE(t.rank() == 2, "softmax expects rank-2");
  Tensor out = t;
  const std::size_t rows = t.rows();
  const std::size_t cols = t.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
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
  return out;
}

}  // namespace cal::autograd

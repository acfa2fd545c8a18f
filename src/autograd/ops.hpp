// Differentiable operations over autograd Vars.
//
// Every op returns a fresh node wired to its parents with a backward
// closure; gradient correctness for each op is verified against central
// finite differences in tests/test_autograd.cpp. The set is exactly what
// the CALLOC model, the NN baselines, and the white-box attacks require.
#pragma once

#include <span>
#include <vector>

#include "autograd/variable.hpp"
#include "common/rng.hpp"

namespace cal::autograd {

// --- arithmetic ----------------------------------------------------------

/// Matrix product of rank-2 vars: (MxK) * (KxN) -> (MxN).
Var matmul(const Var& a, const Var& b);

/// Fused a · bᵀ of rank-2 vars: (MxD) * (NxD)ᵀ -> (MxN). Equivalent to
/// matmul(a, transpose(b)) but skips the transpose node and its copy in
/// both the forward and backward pass (the attention score kernel).
Var matmul_nt(const Var& a, const Var& b);

/// Elementwise sum; shapes must match.
Var add(const Var& a, const Var& b);

/// Broadcast a rank-1 bias (length N) across the rows of a (MxN).
Var add_rowwise(const Var& a, const Var& bias);

/// Broadcast-subtract a rank-1 vector (length N) from the rows of a (MxN).
Var sub_rowwise(const Var& a, const Var& v);

/// Column means of a rank-2 var -> rank-1 (length N).
Var mean_over_rows(const Var& a);

/// Elementwise difference; shapes must match.
Var sub(const Var& a, const Var& b);

/// Hadamard product; shapes must match.
Var mul(const Var& a, const Var& b);

/// Multiply by a compile-time-known scalar.
Var scale(const Var& a, float s);

/// Transpose a rank-2 var.
Var transpose(const Var& a);

/// Column-wise concatenation of two rank-2 vars with equal row counts.
Var concat_cols(const Var& a, const Var& b);

/// Reshape preserving element order (gradient reshapes back).
Var reshape(const Var& a, std::vector<std::size_t> new_shape);

// --- nonlinearities ------------------------------------------------------

Var relu(const Var& a);
Var tanh_op(const Var& a);
Var sigmoid(const Var& a);

/// Row-wise softmax of a rank-2 var (numerically stabilised).
Var softmax_rows(const Var& a);

/// Row-wise L2 normalisation: each row divided by max(‖row‖₂, eps).
Var l2_normalize_rows(const Var& a, float eps = 1e-8F);

/// Multiply every element by a learnable scalar (s has shape {1}).
Var scale_by(const Var& a, const Var& s);

// --- stochastic regularisers (identity in eval mode) ---------------------

/// Inverted dropout: at train time zeroes entries with prob `rate` and
/// rescales survivors by 1/(1-rate); identity at eval time.
Var dropout(const Var& a, float rate, Rng& rng, bool training);

/// Additive Gaussian noise N(0, sigma^2) at train time; identity at eval.
/// The noise is treated as a constant in the backward pass.
Var gaussian_noise(const Var& a, float sigma, Rng& rng, bool training);

// --- reductions & losses -------------------------------------------------

/// Mean of all elements -> scalar (shape {1}).
Var mean_all(const Var& a);

/// Sum of all elements -> scalar (shape {1}).
Var sum_all(const Var& a);

/// Mean-squared-error against a constant target -> scalar.
Var mse_loss(const Var& pred, const Tensor& target);

/// Mean cross-entropy of row logits against integer class labels -> scalar.
/// Uses the fused log-softmax form for numerical stability.
Var cross_entropy(const Var& logits, std::span<const std::size_t> labels);

// --- attention -----------------------------------------------------------

/// Scaled dot-product attention, eq. (3) of the paper:
///   Attention(Q,K,V) = softmax(Q K^T / sqrt(d_k)) V
/// Q: (MxD), K: (NxD), V: (NxP). Composite of the primitives above, so its
/// gradient correctness follows from theirs (and is still tested end-to-end).
Var scaled_dot_product_attention(const Var& q, const Var& k, const Var& v);

// --- non-differentiable helpers -------------------------------------------

/// Row-wise argmax of a rank-2 tensor (predicted class per sample).
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Row-wise softmax of a plain tensor (for probability outputs).
Tensor softmax_rows_tensor(const Tensor& t);

}  // namespace cal::autograd

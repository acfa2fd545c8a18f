// Module abstraction for trainable components.
//
// A Module owns persistent parameter leaves (autograd Vars); each forward
// pass builds a fresh graph referencing those leaves, so gradients
// accumulate into the same buffers across the batch and are consumed by
// nn::Adam. Follows the Core Guidelines class-hierarchy rules: abstract
// interface, virtual destructor, no slicing (modules are non-copyable).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"

namespace cal::nn {

/// A named trainable parameter.
struct Parameter {
  std::string name;
  autograd::Var var;
};

/// Base class for neural-network building blocks.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Build the forward graph for one input batch.
  virtual autograd::Var forward(const autograd::Var& x) = 0;

  /// All trainable parameters (leaves), in a stable order.
  virtual std::vector<Parameter> parameters() = 0;

  /// Toggle training-time behaviour (dropout, noise).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Total number of trainable scalar parameters.
  std::size_t parameter_count();

  /// Zero every parameter gradient.
  void zero_grad();

  /// Deep-copy current parameter values (for best-weight snapshots).
  std::vector<Tensor> snapshot_weights();

  /// Restore from a snapshot taken on this module.
  void restore_weights(const std::vector<Tensor>& snapshot);

  /// Serialize weights as a portable binary blob.
  void save_weights(std::ostream& out);

  /// Load weights previously saved from an identically-shaped module.
  void load_weights(std::istream& in);

  /// Serialized weight size in bytes (the paper reports 254.84 kB).
  std::size_t weight_bytes();

 protected:
  bool training_ = true;
};

/// Convenience: run a module in eval mode on a plain tensor batch,
/// returning the output tensor (no gradients kept).
///
/// Threading contract: a Module already in eval mode is not written to by
/// this call (the training flag is only toggled when it was set), and a
/// forward pass only reads the parameter leaves, so concurrent
/// predict_tensor calls on one eval-mode module are safe as long as
/// nothing mutates the weights concurrently. A module in *training* mode
/// must not be shared across threads: the flag toggle and the stochastic
/// layers' Rng streams race. The serving layer (src/serve) sidesteps the
/// question entirely by giving each worker its own replica.
Tensor predict_tensor(Module& m, const Tensor& x);

}  // namespace cal::nn

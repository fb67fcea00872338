// Layer abstraction for the NN substrate.
//
// NeSSA's target models in the paper are ResNets trained on a GPU; our
// substrate (see DESIGN.md §1) trains real models on synthetic data with the
// same optimizer/schedule, so layers implement explicit forward/backward
// passes over [batch, features] tensors. Parameters and their gradients are
// exposed as parallel spans so optimizers and the quantizer can walk them
// generically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nessa/tensor/tensor.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::nn {

using tensor::Tensor;

/// One named parameter tensor plus its gradient accumulator.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` toggles train-time behaviour (dropout).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backward pass: consumes dL/d(output), returns dL/d(input), and
  /// accumulates parameter gradients (callers zero_grads() per step).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward pass for a model's first layer, whose dL/d(input) nobody
  /// reads: accumulates the parameter gradients backward() would. Layers
  /// that can skip the input gradient override this.
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Parameter/gradient pairs (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy (used to snapshot the model for the FPGA-side quantized copy).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Multiply-accumulate count for a single sample through this layer;
  /// feeds the analytic timing model.
  [[nodiscard]] virtual std::size_t flops_per_sample() const { return 0; }
};

}  // namespace nessa::nn

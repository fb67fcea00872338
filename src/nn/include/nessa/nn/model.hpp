// Sequential model container plus the model registry used to stand in for
// the paper's ResNet-20/18/50 targets (see DESIGN.md §1: the accuracy-side
// experiments train real models on synthetic data, so each paper network maps
// to an MLP of proportional capacity; the timing-side experiments use the
// analytic FLOPs model in src/smartssd).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nessa/nn/layer.hpp"

namespace nessa::nn {

class Sequential {
 public:
  Sequential() = default;

  /// Movable, non-copyable (use clone() for deep copies).
  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  void add(std::unique_ptr<Layer> layer);

  /// Forward through all layers. `train` toggles dropout etc.
  Tensor forward(const Tensor& input, bool train);

  /// Backward through all layers; accumulates parameter gradients. The
  /// gradient with respect to the model input is not computed.
  void backward(const Tensor& grad_output);

  /// All parameter/grad pairs, layer order.
  std::vector<ParamRef> params();

  /// Zero all gradient accumulators.
  void zero_grads();

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t parameter_count() const;

  /// Forward multiply-accumulate count per sample.
  [[nodiscard]] std::size_t flops_per_sample() const;

  /// Deep copy of the architecture and weights.
  [[nodiscard]] Sequential clone() const;

  /// Copy parameter values from another model with identical architecture.
  void load_params_from(const Sequential& other);

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// Build a ReLU MLP: dims = {in, h1, ..., out}. Optional dropout after
  /// each hidden activation.
  static Sequential mlp(const std::vector<std::size_t>& dims, util::Rng& rng,
                        float dropout_rate = 0.0f);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Architecture spec for a paper target network mapped onto our substrate.
struct ModelSpec {
  std::string paper_name;              ///< e.g. "ResNet-20"
  std::vector<std::size_t> hidden;     ///< hidden layer widths
  float dropout = 0.0f;
  /// Forward GFLOPs per sample of the *paper* network at its native input
  /// resolution; drives the analytic GPU timing model.
  double paper_gflops_per_sample = 0.0;
  /// Parameter count (millions) of the paper network; drives quantized
  /// weight-transfer byte accounting in the feedback loop.
  double paper_params_millions = 0.0;
};

/// Registry of the three paper networks. Throws on unknown name.
const ModelSpec& model_spec(const std::string& paper_name);

/// Instantiate the substrate model for a spec given dataset dims.
Sequential build_model(const ModelSpec& spec, std::size_t input_dim,
                       std::size_t num_classes, util::Rng& rng);

}  // namespace nessa::nn

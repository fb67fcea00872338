#include "nessa/quant/qmodel.hpp"

#include <stdexcept>

#include "nessa/nn/dense.hpp"
#include "nessa/tensor/ops.hpp"

namespace nessa::quant {

namespace {

/// Walk a Sequential and produce (Dense*, relu_after) pairs, rejecting
/// unsupported layers. Dropout is skipped (inference-only copy).
std::vector<std::pair<const nn::Dense*, bool>> extract_structure(
    const nn::Sequential& model) {
  std::vector<std::pair<const nn::Dense*, bool>> out;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const std::string kind = layer.name();
    if (kind == "dense") {
      out.emplace_back(static_cast<const nn::Dense*>(&layer), false);
    } else if (kind == "relu") {
      if (out.empty()) {
        throw std::invalid_argument("QuantizedMlp: ReLU before first Dense");
      }
      out.back().second = true;
    } else if (kind == "dropout") {
      // inference-only: identity
    } else {
      throw std::invalid_argument("QuantizedMlp: unsupported layer " + kind);
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("QuantizedMlp: model has no Dense layers");
  }
  return out;
}

}  // namespace

QuantizedMlp QuantizedMlp::from_model(const nn::Sequential& model) {
  QuantizedMlp q;
  for (const auto& [dense, relu_after] : extract_structure(model)) {
    QLayer ql;
    ql.weight = quantize_symmetric(dense->weight());
    ql.packed = pack_weights(ql.weight);
    ql.bias = dense->bias();
    ql.relu_after = relu_after;
    q.layers_.push_back(std::move(ql));
  }
  return q;
}

void QuantizedMlp::refresh_from(const nn::Sequential& model) {
  auto structure = extract_structure(model);
  if (structure.size() != layers_.size()) {
    throw std::invalid_argument("QuantizedMlp::refresh_from: layer mismatch");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (structure[i].first->weight().shape() != layers_[i].weight.shape) {
      throw std::invalid_argument("QuantizedMlp::refresh_from: shape mismatch");
    }
    layers_[i].weight = quantize_symmetric(structure[i].first->weight());
    layers_[i].packed = pack_weights(layers_[i].weight);
    layers_[i].bias = structure[i].first->bias();
    layers_[i].relu_after = structure[i].second;
  }
}

Tensor QuantizedMlp::forward(const Tensor& inputs) const {
  return forward_with_penultimate(inputs).logits;
}

QuantizedMlp::ForwardResult QuantizedMlp::forward_with_penultimate(
    const Tensor& inputs) const {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("QuantizedMlp::forward: inputs must be rank 2");
  }
  ForwardResult out;
  Tensor x = inputs;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i + 1 == layers_.size()) out.penultimate = x;
    const QLayer& l = layers_[i];
    QuantizedTensor qx = quantize_activations(x);
    Tensor y = quantized_matmul(qx, l.packed);
    tensor::add_row_vector(y, l.bias);
    if (l.relu_after) y = tensor::relu(y);
    x = std::move(y);
  }
  out.logits = std::move(x);
  return out;
}

std::size_t QuantizedMlp::payload_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    bytes += l.weight.byte_size();
    bytes += l.bias.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedMlp::float_payload_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    bytes += l.weight.data.size() * sizeof(float);
    bytes += l.bias.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedMlp::input_dim() const {
  return layers_.front().weight.shape[0];
}

std::size_t QuantizedMlp::output_dim() const {
  return layers_.back().weight.shape[1];
}

std::size_t QuantizedMlp::macs_per_sample() const noexcept {
  std::size_t macs = 0;
  for (const auto& l : layers_) {
    macs += l.weight.shape[0] * l.weight.shape[1];
  }
  return macs;
}

}  // namespace nessa::quant

#include "nessa/nn/dense.hpp"

#include "nessa/tensor/ops.hpp"

namespace nessa::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::he_uniform({in_features, out_features}, in_features, rng)),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {}

Tensor Dense::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  Tensor out = tensor::matmul(input, weight_);
  tensor::add_row_vector(out, bias_);
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  // dW += x^T g ; db += column sums of g ; dx = g W^T.
  backward_params(grad_output);
  return tensor::matmul_a_bt(grad_output, weight_);
}

void Dense::backward_params(const Tensor& grad_output) {
  grad_weight_ += tensor::matmul_at_b(cached_input_, grad_output);
  grad_bias_ += tensor::column_sums(grad_output);
}

std::vector<ParamRef> Dense::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->in_features_ = in_features_;
  copy->out_features_ = out_features_;
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->grad_weight_ = Tensor({in_features_, out_features_});
  copy->grad_bias_ = Tensor({out_features_});
  return copy;
}

}  // namespace nessa::nn

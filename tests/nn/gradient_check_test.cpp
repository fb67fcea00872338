// Finite-difference gradient verification of the full backward pass —
// the strongest correctness check the NN substrate has.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nessa/nn/loss.hpp"
#include "nessa/nn/model.hpp"

namespace nessa::nn {
namespace {

/// Loss of the model on a fixed batch (inference-mode forward so dropout
/// never perturbs the check; we only build dropout-free models here).
double batch_loss(Sequential& model, const Tensor& x,
                  const std::vector<Label>& y) {
  SoftmaxCrossEntropy loss_fn;
  Tensor logits = model.forward(x, /*train=*/false);
  return loss_fn.forward(logits, y).mean_loss;
}

struct GradCheckResult {
  double max_rel_error = 0.0;
  std::size_t checked = 0;
  std::size_t outliers = 0;  ///< rel error > 10% (ReLU-kink crossings)

  /// Kink-tolerant pass criterion: central differences step across ReLU
  /// kinks for a handful of parameters, so a small outlier fraction is
  /// expected; everything else must agree tightly.
  [[nodiscard]] bool ok() const {
    const auto allowed = std::max<std::size_t>(
        1, static_cast<std::size_t>(0.02 * static_cast<double>(checked)));
    return checked > 0 && outliers <= allowed;
  }
};

GradCheckResult check_gradients(Sequential& model, const Tensor& x,
                                const std::vector<Label>& y,
                                float epsilon = 1e-2f) {
  // Analytic gradients.
  SoftmaxCrossEntropy loss_fn;
  model.zero_grads();
  Tensor logits = model.forward(x, false);
  auto loss = loss_fn.forward(logits, y);
  model.backward(loss_fn.backward(loss, y));

  GradCheckResult result;
  for (auto& p : model.params()) {
    for (std::size_t i = 0; i < p.value->size(); i += 7) {  // sample every 7th
      const float original = (*p.value)[i];
      (*p.value)[i] = original + epsilon;
      const double up = batch_loss(model, x, y);
      (*p.value)[i] = original - epsilon;
      const double down = batch_loss(model, x, y);
      (*p.value)[i] = original;
      const double numeric = (up - down) / (2.0 * epsilon);
      const double analytic = (*p.grad)[i];
      const double denom =
          std::max({std::abs(numeric), std::abs(analytic), 1e-4});
      const double rel = std::abs(numeric - analytic) / denom;
      result.max_rel_error = std::max(result.max_rel_error, rel);
      if (rel > 0.10) ++result.outliers;
      ++result.checked;
    }
  }
  return result;
}

TEST(GradientCheck, LinearSoftmaxModel) {
  util::Rng rng(21);
  auto model = Sequential::mlp({6, 4}, rng);
  Tensor x = Tensor::randn({8, 6}, 1.0f, rng);
  std::vector<Label> y{0, 1, 2, 3, 0, 1, 2, 3};
  auto result = check_gradients(model, x, y);
  EXPECT_GT(result.checked, 0u);
  EXPECT_LT(result.max_rel_error, 0.05);
}

TEST(GradientCheck, OneHiddenLayerRelu) {
  util::Rng rng(22);
  auto model = Sequential::mlp({5, 12, 3}, rng);
  Tensor x = Tensor::randn({10, 5}, 1.0f, rng);
  std::vector<Label> y{0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  auto result = check_gradients(model, x, y);
  EXPECT_TRUE(result.ok()) << "outliers=" << result.outliers << "/"
                           << result.checked
                           << " max=" << result.max_rel_error;
}

TEST(GradientCheck, TwoHiddenLayers) {
  util::Rng rng(23);
  auto model = Sequential::mlp({4, 8, 8, 2}, rng);
  Tensor x = Tensor::randn({6, 4}, 1.0f, rng);
  std::vector<Label> y{0, 1, 0, 1, 0, 1};
  auto result = check_gradients(model, x, y);
  EXPECT_TRUE(result.ok()) << "outliers=" << result.outliers << "/"
                           << result.checked
                           << " max=" << result.max_rel_error;
}

TEST(GradientCheck, InputGradientAlsoCorrect) {
  // Verify dL/dx against finite differences. Sequential::backward skips the
  // first layer's input gradient, so walk the layers' own backward().
  util::Rng rng(24);
  auto model = Sequential::mlp({3, 6, 2}, rng);
  Tensor x = Tensor::randn({4, 3}, 1.0f, rng);
  std::vector<Label> y{0, 1, 1, 0};

  SoftmaxCrossEntropy loss_fn;
  model.zero_grads();
  auto loss = loss_fn.forward(model.forward(x, false), y);
  Tensor dx = loss_fn.backward(loss, y);
  for (std::size_t i = model.layer_count(); i-- > 0;) {
    dx = model.layer(i).backward(dx);
  }

  const float eps = 1e-2f;
  double max_rel = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double up = batch_loss(model, xp, y);
    const double down = batch_loss(model, xm, y);
    const double numeric = (up - down) / (2.0 * eps);
    const double denom =
        std::max({std::abs(numeric), std::abs(static_cast<double>(dx[i])),
                  1e-4});
    max_rel = std::max(max_rel, std::abs(numeric - dx[i]) / denom);
  }
  EXPECT_LT(max_rel, 0.05);
}

}  // namespace
}  // namespace nessa::nn

#include "nessa/nn/dense.hpp"

#include <gtest/gtest.h>

#include "nessa/tensor/ops.hpp"

namespace nessa::nn {
namespace {

TEST(Dense, ForwardComputesXWPlusB) {
  util::Rng rng(1);
  Dense layer(2, 3, rng);
  layer.weight() = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  layer.bias() = Tensor::from({3}, {0.5f, 0.5f, 0.5f});
  Tensor x = Tensor::from({1, 2}, {1, 1});
  Tensor y = layer.forward(x, true);
  EXPECT_FLOAT_EQ(y(0, 0), 5.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 7.5f);
  EXPECT_FLOAT_EQ(y(0, 2), 9.5f);
}

TEST(Dense, BackwardShapes) {
  util::Rng rng(2);
  Dense layer(4, 3, rng);
  Tensor x({5, 4});
  layer.forward(x, true);
  Tensor g({5, 3});
  Tensor dx = layer.backward(g);
  EXPECT_EQ(dx.rows(), 5u);
  EXPECT_EQ(dx.cols(), 4u);
}

TEST(Dense, BackwardGradientValues) {
  util::Rng rng(3);
  Dense layer(2, 2, rng);
  layer.weight() = Tensor::from({2, 2}, {1, 0, 0, 1});  // identity
  layer.bias().fill(0.0f);
  Tensor x = Tensor::from({1, 2}, {3, 4});
  layer.forward(x, true);
  Tensor g = Tensor::from({1, 2}, {1, 2});
  Tensor dx = layer.backward(g);
  // dx = g W^T = (1, 2) for identity W.
  EXPECT_FLOAT_EQ(dx(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 2.0f);
  // dW = x^T g.
  auto params = layer.params();
  const Tensor& gw = *params[0].grad;
  EXPECT_FLOAT_EQ(gw(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(gw(0, 1), 6.0f);
  EXPECT_FLOAT_EQ(gw(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(gw(1, 1), 8.0f);
  // db = column sums of g.
  const Tensor& gb = *params[1].grad;
  EXPECT_FLOAT_EQ(gb[0], 1.0f);
  EXPECT_FLOAT_EQ(gb[1], 2.0f);
}

TEST(Dense, GradsAccumulateAcrossCalls) {
  util::Rng rng(4);
  Dense layer(2, 2, rng);
  Tensor x({1, 2});
  x.fill(1.0f);
  Tensor g({1, 2});
  g.fill(1.0f);
  layer.forward(x, true);
  layer.backward(g);
  layer.forward(x, true);
  layer.backward(g);
  const Tensor& gb = *layer.params()[1].grad;
  EXPECT_FLOAT_EQ(gb[0], 2.0f);
}

TEST(Dense, BackwardParamsAccumulatesTheSameGradients) {
  util::Rng rng(7);
  Dense full(5, 3, rng);
  auto first = full.clone();
  Tensor x = Tensor::from({2, 5}, {1, 0, -2, 3, 0.5f, 0, 4, 1, -1, 2});
  Tensor g = Tensor::from({2, 3}, {0.25f, -1, 2, 3, 0, -0.5f});
  full.forward(x, true);
  (void)full.backward(g);
  first->forward(x, true);
  first->backward_params(g);
  const auto want = full.params();
  const auto got = first->params();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(*got[i].grad, *want[i].grad) << want[i].name;
  }
}

TEST(Dense, ParamsExposeWeightAndBias) {
  util::Rng rng(5);
  Dense layer(3, 4, rng);
  auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[0].value->shape(), (tensor::Shape{3, 4}));
  EXPECT_EQ(params[1].name, "bias");
  EXPECT_EQ(params[1].value->shape(), (tensor::Shape{4}));
}

TEST(Dense, CloneCopiesWeightsNotGrads) {
  util::Rng rng(6);
  Dense layer(2, 2, rng);
  Tensor x({1, 2});
  x.fill(1.0f);
  layer.forward(x, true);
  Tensor g({1, 2});
  g.fill(1.0f);
  layer.backward(g);

  auto copy = layer.clone();
  auto* dense_copy = dynamic_cast<Dense*>(copy.get());
  ASSERT_NE(dense_copy, nullptr);
  EXPECT_EQ(dense_copy->weight(), layer.weight());
  // Fresh grads in the clone.
  EXPECT_FLOAT_EQ(dense_copy->params()[0].grad->max_abs(), 0.0f);
  // Clone is independent.
  dense_copy->weight()(0, 0) += 1.0f;
  EXPECT_NE(dense_copy->weight()(0, 0), layer.weight()(0, 0));
}

TEST(Dense, FlopsPerSample) {
  util::Rng rng(7);
  Dense layer(10, 20, rng);
  EXPECT_EQ(layer.flops_per_sample(), 2u * 10 * 20);
}

}  // namespace
}  // namespace nessa::nn

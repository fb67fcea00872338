#include "nessa/nn/embedding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/thread_pool.hpp"

namespace nessa::nn {
namespace {

TEST(Embedding, ShapeAndLossCount) {
  util::Rng rng(1);
  auto model = Sequential::mlp({6, 12, 4}, rng);
  Tensor x = Tensor::randn({20, 6}, 1.0f, rng);
  std::vector<Label> y(20);
  for (std::size_t i = 0; i < 20; ++i) y[i] = static_cast<Label>(i % 4);

  auto result = compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad);
  EXPECT_EQ(result.embeddings.rows(), 20u);
  EXPECT_EQ(result.embeddings.cols(), 4u);
  EXPECT_EQ(result.losses.size(), 20u);
  EXPECT_EQ(result.preds.size(), 20u);
}

TEST(Embedding, RowsSumToZero) {
  // (p - onehot) sums to 1 - 1 = 0 per row.
  util::Rng rng(2);
  auto model = Sequential::mlp({5, 3}, rng);
  Tensor x = Tensor::randn({10, 5}, 1.0f, rng);
  std::vector<Label> y(10, 1);
  auto result = compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad);
  for (std::size_t i = 0; i < 10; ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += result.embeddings(i, c);
    EXPECT_NEAR(sum, 0.0, 1e-5);
  }
}

TEST(Embedding, WellClassifiedSamplesHaveSmallNorm) {
  // Train-free construction: make logits confident by scaling weights up.
  util::Rng rng(3);
  auto model = Sequential::mlp({2, 2}, rng);
  // Wire class 0 to feature 0, class 1 to feature 1, strongly.
  *model.params()[0].value = Tensor::from({2, 2}, {10, -10, -10, 10});
  model.params()[1].value->fill(0.0f);

  Tensor x = Tensor::from({2, 2}, {1, 0, 0, 1});
  std::vector<Label> correct{0, 1};
  auto good = compute_embeddings(model, x, correct,
                                 EmbeddingKind::kLogitGrad);
  std::vector<Label> wrong{1, 0};
  auto bad = compute_embeddings(model, x, wrong, EmbeddingKind::kLogitGrad);

  const float good_norm = tensor::l2_norm(good.embeddings.row(0));
  const float bad_norm = tensor::l2_norm(bad.embeddings.row(0));
  EXPECT_LT(good_norm, 0.01f);
  EXPECT_GT(bad_norm, 1.0f);
  EXPECT_LT(good.losses[0], bad.losses[0]);
}

TEST(Embedding, BatchedMatchesSingleShot) {
  util::Rng rng(4);
  auto model = Sequential::mlp({4, 8, 3}, rng);
  Tensor x = Tensor::randn({33, 4}, 1.0f, rng);
  std::vector<Label> y(33);
  for (std::size_t i = 0; i < 33; ++i) y[i] = static_cast<Label>(i % 3);

  auto big = compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad, 33);
  auto small = compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad, 7);
  for (std::size_t i = 0; i < big.embeddings.size(); ++i) {
    EXPECT_NEAR(big.embeddings[i], small.embeddings[i], 1e-5f);
  }
  for (std::size_t i = 0; i < 33; ++i) {
    EXPECT_NEAR(big.losses[i], small.losses[i], 1e-5f);
    EXPECT_EQ(big.preds[i], small.preds[i]);
  }
}

TEST(Embedding, PooledPassEqualsSerialBitForBit) {
  // The workload MLP's widths; 1000 rows leave a ragged last batch at both
  // batch sizes (the default 32 and 256). From inside a pool task the pass runs its batches in order
  // on one model, the serial reference; called directly it runs them on
  // the pool through clones, while the serial pass's GEMMs split instead.
  util::Rng rng(8);
  auto model = Sequential::mlp({74, 384, 192, 10}, rng, 0.1f);
  const Tensor x = Tensor::randn({1000, 74}, 1.0f, rng);
  std::vector<Label> y(1000);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<Label>(i % 10);
  auto& pool = util::ThreadPool::global();
  for (const auto kind :
       {EmbeddingKind::kLogitGrad, EmbeddingKind::kScaledLogitGrad}) {
    for (const std::size_t batch : {std::size_t{32}, std::size_t{256}}) {
      EmbeddingResult serial;
      pool.parallel_for_chunked(0, 2, 1, [&](std::size_t lo, std::size_t) {
        if (lo != 0) return;
        EXPECT_TRUE(pool.size() == 1 || util::ThreadPool::in_parallel_region());
        serial = compute_embeddings(model, x, y, kind, batch);
      });
      const auto pooled = compute_embeddings(model, x, y, kind, batch);
      ASSERT_EQ(pooled.embeddings.shape(), serial.embeddings.shape());
      EXPECT_EQ(std::memcmp(pooled.embeddings.data(), serial.embeddings.data(),
                            serial.embeddings.size() * sizeof(float)),
                0)
          << "batch " << batch;
      EXPECT_EQ(std::memcmp(pooled.losses.data(), serial.losses.data(),
                            serial.losses.size() * sizeof(float)),
                0)
          << "batch " << batch;
      EXPECT_EQ(pooled.preds, serial.preds) << "batch " << batch;
    }
  }
}

TEST(Embedding, ScaledVariantScalesByPenultimateNorm) {
  util::Rng rng(5);
  auto model = Sequential::mlp({4, 6, 3}, rng);
  Tensor x = Tensor::randn({5, 4}, 1.0f, rng);
  std::vector<Label> y{0, 1, 2, 0, 1};

  auto plain = compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad);
  auto scaled =
      compute_embeddings(model, x, y, EmbeddingKind::kScaledLogitGrad);
  auto fwd = forward_with_penultimate(model, x);
  for (std::size_t i = 0; i < 5; ++i) {
    const float norm = tensor::l2_norm(fwd.penultimate.row(i));
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(scaled.embeddings(i, c),
                  plain.embeddings(i, c) * std::max(norm, 1e-6f), 1e-4f);
    }
  }
}

TEST(ForwardWithPenultimate, CapturesLastDenseInput) {
  util::Rng rng(6);
  auto model = Sequential::mlp({4, 6, 3}, rng);
  Tensor x = Tensor::randn({2, 4}, 1.0f, rng);
  auto fwd = forward_with_penultimate(model, x);
  EXPECT_EQ(fwd.penultimate.cols(), 6u);
  EXPECT_EQ(fwd.logits.cols(), 3u);
  // Logits must match the plain forward pass.
  Tensor direct = model.forward(x, false);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(fwd.logits[i], direct[i], 1e-6f);
  }
}

TEST(Embedding, LabelCountMismatchThrows) {
  util::Rng rng(7);
  auto model = Sequential::mlp({4, 2}, rng);
  Tensor x({3, 4});
  std::vector<Label> y{0, 1};
  EXPECT_THROW(
      compute_embeddings(model, x, y, EmbeddingKind::kLogitGrad),
      std::invalid_argument);
}

}  // namespace
}  // namespace nessa::nn

// Google-benchmark microbenchmarks for the numeric substrate: GEMM kernel
// variants, the im2col convolution, batch-norm, quantized vs float MLP
// inference, the int8 scan kernels, the float GEMMs of the workload MLP,
// and the end-to-end per-batch training step.
#include <benchmark/benchmark.h>

#include "nessa/nn/conv.hpp"
#include "nessa/nn/loss.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/tensor/ops.hpp"
#include "nessa/util/cpu_isa.hpp"
#include "nessa/util/rng.hpp"

using namespace nessa;

namespace {

tensor::Tensor random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t({r, c});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul_naive(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Range(32, 256);

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b, /*parallel=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmBlocked)->Range(32, 512);

void BM_GemmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmParallel)->Range(128, 512);

void BM_PairwiseSqDists(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_matrix(n, 16, 3);
  for (auto _ : state) {
    auto d = tensor::pairwise_sq_dists(x, false);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_PairwiseSqDists)->Range(64, 1024);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(4);
  nn::Conv2d conv({3, 16, 16}, 16, 3, 1, 1, rng);
  auto x = random_matrix(32, 3 * 256, 5);
  for (auto _ : state) {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(6);
  nn::Conv2d conv({3, 16, 16}, 16, 3, 1, 1, rng);
  auto x = random_matrix(32, 3 * 256, 7);
  auto y = conv.forward(x, true);
  auto g = random_matrix(32, 16 * 256, 8);
  for (auto _ : state) {
    auto dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_BatchNormForwardTrain(benchmark::State& state) {
  nn::BatchNorm2d bn({16, 16, 16});
  auto x = random_matrix(32, 16 * 256, 9);
  for (auto _ : state) {
    auto y = bn.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForwardTrain);

void BM_MlpTrainStep(benchmark::State& state) {
  util::Rng rng(10);
  auto model = nn::Sequential::mlp({64, 128, 64, 10}, rng);
  nn::Sgd sgd;
  nn::SoftmaxCrossEntropy loss_fn;
  auto x = random_matrix(128, 64, 11);
  std::vector<nn::Label> y(128);
  for (std::size_t i = 0; i < 128; ++i) {
    y[i] = static_cast<nn::Label>(i % 10);
  }
  for (auto _ : state) {
    model.zero_grads();
    auto loss = loss_fn.forward(model.forward(x, true), y);
    model.backward(loss_fn.backward(loss, y));
    sgd.step(model.params());
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_MlpTrainStep);

// One SGD step of the NeSSA ImageNet-100 substrate model (74 -> 384 -> 192
// -> 100 ReLU MLP) on a batch of 128, as core::train_one_epoch runs it.
void BM_DenseTrainStep(benchmark::State& state) {
  util::Rng rng(19);
  auto model = nn::Sequential::mlp({74, 384, 192, 100}, rng);
  nn::Sgd sgd;
  nn::SoftmaxCrossEntropy loss_fn;
  auto x = random_matrix(128, 74, 20);
  std::vector<nn::Label> y(128);
  for (std::size_t i = 0; i < 128; ++i) {
    y[i] = static_cast<nn::Label>(i % 100);
  }
  for (auto _ : state) {
    model.zero_grads();
    auto loss = loss_fn.forward(model.forward(x, true), y);
    model.backward(loss_fn.backward(loss, y));
    sgd.step(model.params());
    benchmark::DoNotOptimize(loss.mean_loss);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DenseTrainStep);

/// A batch-128 activation matrix after ReLU: about half its entries zero.
tensor::Tensor relu_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  return tensor::relu(random_matrix(r, c, seed));
}

// The three float GEMMs of the 384 -> 192 layer at batch 128 (128 x 384 x
// 192 multiply-adds each): forward H W, weight gradient H^T G, input
// gradient G W^T. Arg 0 runs on the calling thread, 1 on the pool.
void BM_FloatGemmAB(benchmark::State& state) {
  const bool parallel = state.range(0) != 0;
  auto h = relu_matrix(128, 384, 21);
  auto w = random_matrix(384, 192, 22);
  for (auto _ : state) {
    auto c = tensor::matmul(h, w, parallel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 384 * 192);
  state.SetLabel(util::kernel_isa_name(util::best_kernel_isa()));
}
BENCHMARK(BM_FloatGemmAB)->Arg(0)->Arg(1);

void BM_FloatGemmAtB(benchmark::State& state) {
  const bool parallel = state.range(0) != 0;
  auto h = relu_matrix(128, 384, 23);
  auto g = random_matrix(128, 192, 24);
  for (auto _ : state) {
    auto c = tensor::matmul_at_b(h, g, parallel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 384 * 192);
}
BENCHMARK(BM_FloatGemmAtB)->Arg(0)->Arg(1);

void BM_FloatGemmABt(benchmark::State& state) {
  const bool parallel = state.range(0) != 0;
  auto g = random_matrix(128, 192, 25);
  auto w = random_matrix(384, 192, 26);
  for (auto _ : state) {
    auto c = tensor::matmul_a_bt(g, w, parallel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 384 * 192);
}
BENCHMARK(BM_FloatGemmABt)->Arg(0)->Arg(1);

void BM_MiniResnetTrainStep(benchmark::State& state) {
  util::Rng rng(12);
  auto model = nn::build_mini_resnet({3, 8, 8}, 8, 10, rng);
  nn::Sgd sgd;
  nn::SoftmaxCrossEntropy loss_fn;
  auto x = random_matrix(32, 3 * 64, 13);
  std::vector<nn::Label> y(32);
  for (std::size_t i = 0; i < 32; ++i) {
    y[i] = static_cast<nn::Label>(i % 10);
  }
  for (auto _ : state) {
    model.zero_grads();
    auto loss = loss_fn.forward(model.forward(x, true), y);
    model.backward(loss_fn.backward(loss, y));
    sgd.step(model.params());
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_MiniResnetTrainStep);

void BM_QuantizedVsFloat_Float(benchmark::State& state) {
  util::Rng rng(14);
  auto model = nn::Sequential::mlp({128, 256, 10}, rng);
  auto x = random_matrix(256, 128, 15);
  for (auto _ : state) {
    auto y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedVsFloat_Float);

void BM_QuantizedVsFloat_Int8(benchmark::State& state) {
  util::Rng rng(14);
  auto model = nn::Sequential::mlp({128, 256, 10}, rng);
  auto qmodel = quant::QuantizedMlp::from_model(model);
  auto x = random_matrix(256, 128, 15);
  for (auto _ : state) {
    auto y = qmodel.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedVsFloat_Int8);

// The selection scan's int8 GEMM shape: a 128-row batch through a
// 384 -> 192 layer, weights packed once as QuantizedMlp holds them.
void BM_QuantizedMatmul(benchmark::State& state) {
  auto qa = quant::quantize_activations(random_matrix(128, 384, 16));
  auto packed =
      quant::pack_weights(quant::quantize_symmetric(random_matrix(384, 192, 17)));
  for (auto _ : state) {
    auto y = quant::quantized_matmul(qa, packed);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 384 * 192);
  state.SetLabel(util::kernel_isa_name(util::best_kernel_isa()));
}
BENCHMARK(BM_QuantizedMatmul);

void BM_QuantizeActivations(benchmark::State& state) {
  auto x = random_matrix(128, 384, 18);
  for (auto _ : state) {
    auto q = quant::quantize_activations(x);
    benchmark::DoNotOptimize(q.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * 384);
}
BENCHMARK(BM_QuantizeActivations);

}  // namespace

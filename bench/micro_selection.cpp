// Google-benchmark microbenchmarks for the selection kernels and the
// quantized forward path: the §3.1 complexity claims (lazy and stochastic
// greedy vs naive), the §3.2.3 partitioning win, and the §3.2.1
// quantization win.
#include <benchmark/benchmark.h>

#include <random>

#include "nessa/nn/model.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/selection/greedy.hpp"
#include "nessa/selection/kcenter.hpp"
#include "nessa/util/rng.hpp"

using namespace nessa;

namespace {

tensor::Tensor random_embeddings(std::size_t n, std::size_t d,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t({n, d});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

// Greedy benchmarks take (n, parallel) argument pairs: /<n>/0 runs the
// serial engine, /<n>/1 runs the same reduction on the global thread pool
// (identical results by construction — see docs/performance.md).

void BM_FacilityLocationBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool parallel = state.range(1) != 0;
  auto emb = random_embeddings(n, 10, 1);
  for (auto _ : state) {
    auto fl = selection::FacilityLocation::from_embeddings(emb, parallel);
    benchmark::DoNotOptimize(fl.ground_size());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FacilityLocationBuild)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->Complexity();

// Large-N regime (the FPGA-chunk sizes where the Gram matrix and coverage
// vector stop fitting in cache): the column-tiled kernels engage at
// N >= FacilityLocation::kTiledThreshold with bit-identical results.

void BM_FacilityLocationBuildLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto emb = random_embeddings(n, 10, 1);
  for (auto _ : state) {
    auto fl = selection::FacilityLocation::from_embeddings(emb, false);
    benchmark::DoNotOptimize(fl.ground_size());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FacilityLocationBuildLarge)->Arg(4096)->Arg(8192);

selection::FacilityLocation large_similarity(std::size_t n,
                                             std::uint64_t seed) {
  tensor::Tensor s({n, n});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (float& x : s.flat()) x = dist(rng);
  return selection::FacilityLocation::from_similarity(std::move(s));
}

/// One full-ground-set gain scan (the per-round cost of naive greedy),
/// candidate at a time — re-fetches the coverage vector once per candidate.
void BM_GainScanPerCandidate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto fl = large_similarity(n, 9);
  auto st = fl.empty_state();
  for (std::size_t j = 0; j < 4; ++j) fl.add(st, j * (n / 4) + 1);
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += fl.marginal_gain(st, j);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GainScanPerCandidate)->Arg(4096)->Arg(8192);

/// The same scan through the batched column-tiled kernel: one coverage tile
/// serves 16 candidates. Results are bit-identical to the per-candidate
/// scan; only the memory traffic differs.
void BM_GainScanBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto fl = large_similarity(n, 9);
  auto st = fl.empty_state();
  for (std::size_t j = 0; j < 4; ++j) fl.add(st, j * (n / 4) + 1);
  double gains[16];
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t j0 = 0; j0 < n; j0 += 16) {
      const std::size_t j1 = std::min(n, j0 + 16);
      fl.marginal_gains(st, j0, j1, gains);
      for (std::size_t j = j0; j < j1; ++j) sum += gains[j - j0];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GainScanBatched)->Arg(4096)->Arg(8192);

void BM_NaiveGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool parallel = state.range(1) != 0;
  auto fl = selection::FacilityLocation::from_embeddings(
      random_embeddings(n, 10, 2));
  for (auto _ : state) {
    auto result = selection::naive_greedy(fl, n / 10, parallel);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_NaiveGreedy)->ArgsProduct({{64, 256, 1024}, {0, 1}});

void BM_LazyGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool parallel = state.range(1) != 0;
  auto fl = selection::FacilityLocation::from_embeddings(
      random_embeddings(n, 10, 2));
  for (auto _ : state) {
    auto result = selection::lazy_greedy(fl, n / 10, parallel);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_LazyGreedy)->ArgsProduct({{64, 256, 512, 1024}, {0, 1}});

/// One CRAIG class as the craig-cifar10 workload sees it: about 1,000
/// examples of 10-dimensional embeddings, 30% selected by serial lazy
/// greedy (CELF) on a prebuilt similarity matrix.
void BM_LazyGreedyCraig(benchmark::State& state) {
  auto fl = selection::FacilityLocation::from_embeddings(
      random_embeddings(1000, 10, 2));
  for (auto _ : state) {
    auto result = selection::lazy_greedy(fl, 300, false);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_LazyGreedyCraig);

void BM_StochasticGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool parallel = state.range(1) != 0;
  auto fl = selection::FacilityLocation::from_embeddings(
      random_embeddings(n, 10, 2));
  util::Rng rng(3);
  for (auto _ : state) {
    auto result =
        selection::stochastic_greedy(fl, n / 10, rng, 0.1, parallel);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_StochasticGreedy)->ArgsProduct({{64, 256, 512}, {0, 1}});

void BM_KCenterGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto pts = random_embeddings(n, 10, 4);
  for (auto _ : state) {
    auto result = selection::kcenter_greedy(pts, n / 10);
    benchmark::DoNotOptimize(result.max_radius);
  }
}
BENCHMARK(BM_KCenterGreedy)->Range(64, 1024);

/// §3.2.3: monolithic vs partition-chunked selection at equal budget.
void BM_SelectMonolithic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto emb = random_embeddings(n, 10, 5);
  std::vector<std::int32_t> labels(n, 0);
  selection::DriverConfig cfg;
  cfg.per_class = false;
  cfg.partition_quota = 0;
  for (auto _ : state) {
    auto result = selection::select_coreset(emb, labels, {}, n / 5, cfg);
    benchmark::DoNotOptimize(result.indices.data());
  }
}
BENCHMARK(BM_SelectMonolithic)->Range(256, 2048);

void BM_SelectPartitioned(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto emb = random_embeddings(n, 10, 5);
  std::vector<std::int32_t> labels(n, 0);
  selection::DriverConfig cfg;
  cfg.per_class = false;
  cfg.partition_quota = 64;
  for (auto _ : state) {
    auto result = selection::select_coreset(emb, labels, {}, n / 5, cfg);
    benchmark::DoNotOptimize(result.indices.data());
  }
}
BENCHMARK(BM_SelectPartitioned)->Range(256, 2048);

/// §3.2.1: float vs int8 forward pass of the selection model.
void BM_FloatForward(benchmark::State& state) {
  util::Rng rng(6);
  auto model = nn::Sequential::mlp({64, 256, 128, 10}, rng);
  auto x = random_embeddings(128, 64, 7);
  for (auto _ : state) {
    auto y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FloatForward);

void BM_QuantizedForward(benchmark::State& state) {
  util::Rng rng(6);
  auto model = nn::Sequential::mlp({64, 256, 128, 10}, rng);
  auto qmodel = quant::QuantizedMlp::from_model(model);
  auto x = random_embeddings(128, 64, 7);
  for (auto _ : state) {
    auto y = qmodel.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedForward);

void BM_QuantizeRefresh(benchmark::State& state) {
  util::Rng rng(8);
  auto model = nn::Sequential::mlp({64, 256, 128, 10}, rng);
  auto qmodel = quant::QuantizedMlp::from_model(model);
  for (auto _ : state) {
    qmodel.refresh_from(model);
    benchmark::DoNotOptimize(qmodel.payload_bytes());
  }
}
BENCHMARK(BM_QuantizeRefresh);

}  // namespace

// Determinism contract of the parallel selection engine: flipping the
// `parallel` knob must not change a single selected index, objective bit,
// or weight for the deterministic algorithms (facility-location build,
// naive/lazy greedy, and stochastic greedy fed the same rng), because every
// reduction uses fixed-grain blocks combined in block order. These tests
// exercise the contract on the global pool regardless of its size — the
// block structure is thread-count independent by construction.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "../support/medoid_oracle.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/selection/facility_location.hpp"
#include "nessa/selection/greedi.hpp"
#include "nessa/selection/greedy.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::selection {
namespace {

Tensor random_embeddings(std::size_t n, std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t({n, d});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

const std::vector<std::pair<std::size_t, std::size_t>> kCases = {
    {17, 5}, {64, 16}, {193, 31}, {256, 40}};

TEST(GreedyParallel, BuildMatchesSerialBitForBit) {
  for (const auto& [n, k] : kCases) {
    auto emb = random_embeddings(n, 8, n);
    auto serial = FacilityLocation::from_embeddings(emb, false);
    auto parallel = FacilityLocation::from_embeddings(emb, true);
    ASSERT_EQ(serial.c0(), parallel.c0()) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(serial.similarity(i, j), parallel.similarity(i, j))
            << "n=" << n << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(GreedyParallel, NaiveMatchesSerialBitForBit) {
  for (const auto& [n, k] : kCases) {
    auto emb = random_embeddings(n, 8, n + 1);
    auto fl_s = FacilityLocation::from_embeddings(emb, false);
    auto fl_p = FacilityLocation::from_embeddings(emb, true);
    auto a = naive_greedy(fl_s, k, false);
    auto b = naive_greedy(fl_p, k, true);
    EXPECT_EQ(a.selected, b.selected) << "n=" << n;
    EXPECT_EQ(a.objective, b.objective) << "n=" << n;
    EXPECT_EQ(a.weights, b.weights) << "n=" << n;
    EXPECT_EQ(a.gain_evaluations, b.gain_evaluations) << "n=" << n;
  }
}

TEST(GreedyParallel, LazyMatchesSerialSelection) {
  for (const auto& [n, k] : kCases) {
    auto emb = random_embeddings(n, 8, n + 2);
    auto fl_s = FacilityLocation::from_embeddings(emb, false);
    auto fl_p = FacilityLocation::from_embeddings(emb, true);
    auto a = lazy_greedy(fl_s, k, false);
    auto b = lazy_greedy(fl_p, k, true);
    // The batched stale re-evaluation may do MORE evaluations than the
    // serial heap walk, but the selected sequence and objective must be
    // bit-identical.
    EXPECT_EQ(a.selected, b.selected) << "n=" << n;
    EXPECT_EQ(a.objective, b.objective) << "n=" << n;
    EXPECT_EQ(a.weights, b.weights) << "n=" << n;
    EXPECT_GE(b.gain_evaluations, a.selected.size());
  }
}

TEST(GreedyParallel, LazyMatchesNaive) {
  for (const auto& [n, k] : kCases) {
    auto fl = FacilityLocation::from_embeddings(random_embeddings(n, 8, n + 3));
    auto naive = naive_greedy(fl, k, false);
    auto lazy_s = lazy_greedy(fl, k, false);
    auto lazy_p = lazy_greedy(fl, k, true);
    EXPECT_EQ(naive.selected, lazy_s.selected) << "n=" << n;
    EXPECT_EQ(naive.selected, lazy_p.selected) << "n=" << n;
  }
}

TEST(GreedyParallel, StochasticMatchesSerialBitForBit) {
  for (const auto& [n, k] : kCases) {
    auto emb = random_embeddings(n, 8, n + 4);
    auto fl_s = FacilityLocation::from_embeddings(emb, false);
    auto fl_p = FacilityLocation::from_embeddings(emb, true);
    // Sampling happens on the calling thread in both modes, so equal seeds
    // mean equal candidate samples — and then the block argmax must agree.
    util::Rng rng_a(99), rng_b(99);
    auto a = stochastic_greedy(fl_s, k, rng_a, 0.1, false);
    auto b = stochastic_greedy(fl_p, k, rng_b, 0.1, true);
    EXPECT_EQ(a.selected, b.selected) << "n=" << n;
    EXPECT_EQ(a.objective, b.objective) << "n=" << n;
    EXPECT_EQ(a.weights, b.weights) << "n=" << n;
    EXPECT_EQ(a.gain_evaluations, b.gain_evaluations) << "n=" << n;
  }
}

// Regression: with an all-equal similarity matrix every candidate ties on
// every round. The deterministic tie-break (smaller index wins) must hold
// on both paths, so the selection is exactly 0, 1, ..., k-1.
TEST(GreedyParallel, TieBreakPrefersSmallestIndex) {
  const std::size_t n = 12, k = 5;
  Tensor sim({n, n});
  for (float& x : sim.flat()) x = 7.0f;
  for (const bool parallel : {false, true}) {
    auto fl = FacilityLocation::from_similarity(sim);
    fl.set_parallel(parallel);
    auto naive = naive_greedy(fl, k, parallel);
    auto lazy = lazy_greedy(fl, k, parallel);
    const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(naive.selected, expected) << "parallel=" << parallel;
    EXPECT_EQ(lazy.selected, expected) << "parallel=" << parallel;
    // One element covers everything; the rest add nothing.
    EXPECT_DOUBLE_EQ(naive.objective, 7.0 * n);
    EXPECT_DOUBLE_EQ(lazy.objective, 7.0 * n);
  }
}

TEST(GreedyParallel, ValueAndMedoidWeightsMatchSerial) {
  const std::size_t n = 150;
  auto emb = random_embeddings(n, 6, 77);
  auto fl_s = FacilityLocation::from_embeddings(emb, false);
  auto fl_p = FacilityLocation::from_embeddings(emb, true);
  const std::vector<std::size_t> set = {3, 31, 77, 149, 5};
  EXPECT_EQ(fl_s.value(set), fl_p.value(set));
  EXPECT_EQ(owner_weights(fl_s, set), owner_weights(fl_p, set));
}

TEST(GreedyParallel, DriverParallelKnobKeepsLazyConfigIdentical) {
  const std::size_t n = 120;
  auto emb = random_embeddings(n, 8, 11);
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::int32_t>(i % 3);
  }
  DriverConfig serial_cfg;  // kLazy + per_class: consumes no rng
  serial_cfg.parallelism = false;
  DriverConfig parallel_cfg = serial_cfg;
  parallel_cfg.parallelism = true;
  auto a = select_coreset(emb, labels, {}, 30, serial_cfg);
  auto b = select_coreset(emb, labels, {}, 30, parallel_cfg);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(GreedyParallel, GreediParallelKnobKeepsResultIdentical) {
  const std::size_t n = 160;
  auto emb = random_embeddings(n, 8, 13);
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::int32_t>(i % 2);
  }
  GreediConfig serial_cfg;
  serial_cfg.num_partitions = 4;
  serial_cfg.driver.parallelism = false;
  GreediConfig parallel_cfg = serial_cfg;
  parallel_cfg.driver.parallelism = true;
  auto a = greedi_select(emb, labels, {}, 20, serial_cfg);
  auto b = greedi_select(emb, labels, {}, 20, parallel_cfg);
  // Partitions derive independent seeds either way, and locals merge in
  // partition order, so the fan-out must not change the result.
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.union_size, b.union_size);
}

}  // namespace
}  // namespace nessa::selection

#include "nessa/selection/facility_location.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "../support/medoid_oracle.hpp"
#include "nessa/selection/greedy.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::selection {
namespace {

Tensor random_embeddings(std::size_t n, std::size_t d, util::Rng& rng) {
  Tensor t({n, d});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

TEST(FacilityLocation, SimilaritiesNonNegativeAndDiagonalIsC0) {
  util::Rng rng(1);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(20, 5, rng));
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(fl.similarity(i, i), fl.c0());  // zero self-distance
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_GE(fl.similarity(i, j), 0.0f);
      EXPECT_LE(fl.similarity(i, j), fl.c0() + 1e-4f);
    }
  }
}

TEST(FacilityLocation, EmptySetHasZeroValue) {
  util::Rng rng(2);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(10, 3, rng));
  EXPECT_DOUBLE_EQ(fl.value({}), 0.0);
}

TEST(FacilityLocation, FullSetValueIsNTimesC0) {
  // With every element selected, each point is covered by itself at c0.
  util::Rng rng(3);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(12, 4, rng));
  std::vector<std::size_t> all(12);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_NEAR(fl.value(all), 12.0 * fl.c0(), 1e-2);
}

TEST(FacilityLocation, Monotonicity) {
  // F(S + j) >= F(S) for all S, j — randomized spot check.
  util::Rng rng(4);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(15, 4, rng));
  for (int trial = 0; trial < 20; ++trial) {
    auto set = rng.sample_without_replacement(15, 1 + rng.uniform_int(10ULL));
    const double before = fl.value(set);
    const std::size_t extra = rng.uniform_int(15ULL);
    auto bigger = set;
    bigger.push_back(extra);
    EXPECT_GE(fl.value(bigger) + 1e-6, before);
  }
}

TEST(FacilityLocation, Submodularity) {
  // Diminishing returns: gain(j | A) >= gain(j | B) whenever A subset B.
  util::Rng rng(5);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(14, 4, rng));
  for (int trial = 0; trial < 20; ++trial) {
    auto b = rng.sample_without_replacement(14, 2 + rng.uniform_int(8ULL));
    // A is a strict prefix of B.
    std::vector<std::size_t> a(b.begin(), b.begin() + 1);
    auto state_a = fl.empty_state();
    for (auto j : a) fl.add(state_a, j);
    auto state_b = fl.empty_state();
    for (auto j : b) fl.add(state_b, j);
    const std::size_t extra = rng.uniform_int(14ULL);
    EXPECT_GE(fl.marginal_gain(state_a, extra) + 1e-6,
              fl.marginal_gain(state_b, extra));
  }
}

TEST(FacilityLocation, IncrementalStateMatchesDirectValue) {
  util::Rng rng(6);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(18, 5, rng));
  auto state = fl.empty_state();
  std::vector<std::size_t> selected;
  for (std::size_t j : {3u, 11u, 7u, 0u}) {
    const double gain = fl.marginal_gain(state, j);
    const double before = state.value;
    fl.add(state, j);
    selected.push_back(j);
    EXPECT_NEAR(state.value, before + gain, 1e-4);
    EXPECT_NEAR(state.value, fl.value(selected), 1e-3);
  }
}

TEST(FacilityLocation, AddingDuplicateElementGainsNothing) {
  util::Rng rng(7);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(10, 3, rng));
  auto state = fl.empty_state();
  fl.add(state, 4);
  EXPECT_NEAR(fl.marginal_gain(state, 4), 0.0, 1e-9);
}

TEST(FacilityLocation, MedoidWeightsSumToGroundSize) {
  util::Rng rng(8);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(30, 4, rng));
  std::vector<std::size_t> selected{1, 5, 20};
  auto weights = owner_weights(fl, selected);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(std::accumulate(weights.begin(), weights.end(), std::size_t{0}),
            30u);
}

TEST(FacilityLocation, SingleMedoidCoversEverything) {
  util::Rng rng(9);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(9, 3, rng));
  std::vector<std::size_t> selected{2};
  auto weights = owner_weights(fl, selected);
  EXPECT_EQ(weights[0], 9u);
}

TEST(FacilityLocation, OwnerWeightsMatchMedoidOracle) {
  // Every row appears three times, and the grid values make many distinct
  // rows equally far apart, so most elements tie between several selected
  // elements: the owners must give each tie to the earliest-selected one.
  util::Rng rng(10);
  Tensor emb({90, 3});
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      emb(i, c) = static_cast<float>(rng.uniform_int(3));
    }
  }
  for (std::size_t i = 30; i < 90; ++i) {
    for (std::size_t c = 0; c < 3; ++c) emb(i, c) = emb(i % 30, c);
  }
  for (const bool parallel : {false, true}) {
    const auto fl = FacilityLocation::from_embeddings(emb, parallel);
    for (std::size_t trial = 0; trial < 20; ++trial) {
      std::vector<std::size_t> selected;
      const std::size_t size = 1 + rng.uniform_int(12);
      while (selected.size() < size) {
        const std::size_t j = rng.uniform_int(90);
        if (std::find(selected.begin(), selected.end(), j) == selected.end()) {
          selected.push_back(j);
        }
      }
      EXPECT_EQ(owner_weights(fl, selected),
                medoid_weights_oracle(fl, selected))
          << "trial " << trial;
    }
    // And through a greedy run, which selects duplicates' first copies.
    for (const std::size_t k : {1, 5, 20, 90}) {
      const GreedyResult r = lazy_greedy(fl, k, parallel);
      EXPECT_EQ(r.weights, medoid_weights_oracle(fl, r.selected)) << k;
    }
  }
}

TEST(FacilityLocation, FromSimilarityValidates) {
  EXPECT_THROW(FacilityLocation::from_similarity(Tensor({2, 3})),
               std::invalid_argument);
  Tensor negative = Tensor::from({2, 2}, {1, -1, -1, 1});
  EXPECT_THROW(FacilityLocation::from_similarity(negative),
               std::invalid_argument);
  Tensor ok = Tensor::from({2, 2}, {2, 1, 1, 2});
  auto fl = FacilityLocation::from_similarity(ok);
  EXPECT_EQ(fl.ground_size(), 2u);
  EXPECT_FLOAT_EQ(fl.c0(), 2.0f);
}

TEST(FacilityLocation, MemoryBytesQuadratic) {
  util::Rng rng(10);
  auto small = FacilityLocation::from_embeddings(random_embeddings(10, 3, rng));
  auto large = FacilityLocation::from_embeddings(random_embeddings(20, 3, rng));
  EXPECT_EQ(small.memory_bytes(), 10u * 10 * 4 + 10 * 4);
  EXPECT_GT(large.memory_bytes(), 3u * small.memory_bytes());
}

TEST(FacilityLocation, OutOfRangeIndexThrows) {
  util::Rng rng(11);
  auto fl = FacilityLocation::from_embeddings(random_embeddings(5, 2, rng));
  auto state = fl.empty_state();
  EXPECT_THROW(fl.marginal_gain(state, 5), std::out_of_range);
  EXPECT_THROW(fl.add(state, 99), std::out_of_range);
}

TEST(FacilityLocation, DuplicatePointsShareCoverage) {
  // Two identical rows: selecting one covers the other at c0.
  Tensor emb = Tensor::from({3, 2}, {1, 1, 1, 1, -1, -1});
  auto fl = FacilityLocation::from_embeddings(emb);
  auto state = fl.empty_state();
  fl.add(state, 0);
  EXPECT_NEAR(fl.marginal_gain(state, 1), 0.0, 1e-6);
  EXPECT_GT(fl.marginal_gain(state, 2), 0.0);
}

}  // namespace
}  // namespace nessa::selection

// Lazy greedy (CELF) pins. Its gain-evaluation count prices the simulated
// selection time, so faster heap code must leave the picks, the objective,
// the weights and the count exactly as they were:
//  - golden results for serial lazy greedy at the CRAIG class shape and
//    past the column-tiling threshold;
//  - pooled lazy greedy against a serial, in-test copy of its batched
//    refresh. CTest reruns that suite with NESSA_THREADS at 1, 4 and 12:
//    the count must not depend on the pool size.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "nessa/selection/facility_location.hpp"
#include "nessa/selection/greedy.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::selection {
namespace {

Tensor gaussian_embeddings(std::size_t n, std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t({n, d});
  for (float& x : t.flat()) x = static_cast<float>(rng.gaussian());
  return t;
}

/// FNV-1a over a sequence of indices or counts.
std::uint64_t fnv1a(const std::vector<std::size_t>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::size_t x : v) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  std::size_t n, d, k;
  std::uint64_t seed;
  std::uint64_t selected_fnv;
  std::uint64_t weights_fnv;
  std::uint64_t objective_bits;
  std::size_t gain_evaluations;
};

void expect_golden(const Golden& g) {
  const auto fl =
      FacilityLocation::from_embeddings(gaussian_embeddings(g.n, g.d, g.seed));
  const GreedyResult r = lazy_greedy(fl, g.k, false);
  ASSERT_EQ(r.selected.size(), g.k);
  EXPECT_EQ(fnv1a(r.selected), g.selected_fnv);
  EXPECT_EQ(fnv1a(r.weights), g.weights_fnv);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), g.objective_bits);
  EXPECT_EQ(r.gain_evaluations, g.gain_evaluations);
}

TEST(LazyGreedyGolden, CraigClassShape) {
  expect_golden({1000, 10, 300, 90, 17422942812255175623ull,
                 13076047246144413119ull, 4681569029103550464ull, 7748});
}

TEST(LazyGreedyGolden, TiledShape) {
  // n >= FacilityLocation::kTiledThreshold: initial gains run column-tiled.
  expect_golden({4100, 10, 410, 91, 18420250259953602538ull,
                 15509043189819109621ull, 4692159812991582208ull, 36789});
}

/// Serial copy of lazy greedy's pooled refresh: when the heap's top is
/// stale, it and up to 15 more stale entries below it are re-evaluated
/// together and pushed back.
GreedyResult batched_refresh_oracle(const FacilityLocation& fl,
                                    std::size_t k) {
  struct Entry {
    double gain;
    std::size_t index;
    std::size_t stamp;
    bool operator<(const Entry& o) const {
      if (gain != o.gain) return gain < o.gain;
      return index > o.index;
    }
  };
  constexpr std::size_t kBatch = 16;
  const std::size_t n = fl.ground_size();
  k = std::min(k, n);
  auto state = fl.empty_state();
  std::priority_queue<Entry> heap;
  for (std::size_t j = 0; j < n; ++j) {
    heap.push({fl.marginal_gain(state, j), j, 0});
  }
  GreedyResult out;
  out.gain_evaluations = n;
  while (state.selected.size() < k && !heap.empty()) {
    if (heap.top().stamp == state.selected.size()) {
      fl.add(state, heap.top().index);
      heap.pop();
      continue;
    }
    std::vector<Entry> stale;
    while (stale.size() < kBatch && !heap.empty() &&
           heap.top().stamp != state.selected.size()) {
      stale.push_back(heap.top());
      heap.pop();
    }
    for (auto& e : stale) {
      e.gain = fl.marginal_gain(state, e.index);
      e.stamp = state.selected.size();
      heap.push(e);
    }
    out.gain_evaluations += stale.size();
  }
  out.selected = state.selected;
  out.objective = state.value;
  return out;
}

TEST(LazyGreedyBatched, PooledMatchesSerialOracle) {
  struct Case {
    std::size_t n, d, k;
  };
  for (const Case c : {Case{40, 4, 10}, Case{300, 10, 90}, Case{1000, 10, 300},
                       Case{4100, 10, 64}}) {
    const auto emb = gaussian_embeddings(c.n, c.d, c.n + c.k);
    const auto fl = FacilityLocation::from_embeddings(emb);
    const GreedyResult want = batched_refresh_oracle(fl, c.k);
    const GreedyResult got = lazy_greedy(fl, c.k, true);
    EXPECT_EQ(got.selected, want.selected) << "n=" << c.n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << "n=" << c.n;
    EXPECT_EQ(got.gain_evaluations, want.gain_evaluations) << "n=" << c.n;
    // The batched refresh picks what serial CELF picks.
    EXPECT_EQ(got.selected, lazy_greedy(fl, c.k, false).selected)
        << "n=" << c.n;
  }
}

}  // namespace
}  // namespace nessa::selection

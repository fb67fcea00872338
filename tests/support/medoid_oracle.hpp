// Reference CRAIG medoid weights, computed the direct way: every element
// scans the selected set for its most similar member. The selection library
// gets the same counts from the owners FacilityLocation::add records; this
// is the oracle the tests hold them to.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nessa/selection/facility_location.hpp"

namespace nessa::selection {

/// gamma_p = |{i : selected[p] = argmax_{s in S} sim(i, s)}|, ties broken
/// toward the earliest-selected element. Sums to n.
inline std::vector<std::size_t> medoid_weights_oracle(
    const FacilityLocation& fl, std::span<const std::size_t> selected) {
  std::vector<std::size_t> weights(selected.size(), 0);
  if (selected.empty()) return weights;
  for (std::size_t i = 0; i < fl.ground_size(); ++i) {
    std::size_t best_pos = 0;
    float best = fl.similarity(i, selected[0]);
    for (std::size_t p = 1; p < selected.size(); ++p) {
      const float s = fl.similarity(i, selected[p]);
      if (s > best) {
        best = s;
        best_pos = p;
      }
    }
    ++weights[best_pos];
  }
  return weights;
}

/// The owner-based weights of `selected`, added in order to a fresh state.
inline std::vector<std::size_t> owner_weights(
    const FacilityLocation& fl, std::span<const std::size_t> selected) {
  auto state = fl.empty_state();
  for (const std::size_t j : selected) fl.add(state, j);
  return state.medoid_weights();
}

}  // namespace nessa::selection

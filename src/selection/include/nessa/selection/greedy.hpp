// Greedy maximizers for the facility-location objective under a cardinality
// constraint. Three variants, matching §3.1's complexity discussion:
//
//  - naive greedy:       O(n^2 k) marginal-gain evaluations; the reference.
//  - lazy greedy:        Minoux's accelerated greedy [41] — keeps stale
//                        gains in a max-heap; submodularity guarantees a
//                        re-evaluated top element is optimal. Identical
//                        output to naive greedy.
//  - stochastic greedy:  "Lazier Than Lazy Greedy" [40] — each step scans a
//                        random sample of size (n/k) ln(1/eps), giving a
//                        (1 - 1/e - eps) guarantee in O(n log 1/eps) total.
//
// Every maximizer takes a util::Parallelism knob (bool call sites keep
// working through its implicit conversions). When set, candidate gains are
// evaluated in contiguous blocks on the global thread pool with a
// deterministic argmax reduction (block partials combined in block order,
// ties broken toward the smaller index) — the selected sequence, objective,
// and weights are bit-identical to the serial path for any thread count.
// Only `gain_evaluations` may differ for the parallel lazy variant, which
// re-evaluates stale heap entries in batches.
//
// Every maximizer returns the selected indices in selection order plus the
// number of marginal-gain evaluations performed (the operational-intensity
// signal the FPGA timing model charges for).
#pragma once

#include <cstddef>
#include <vector>

#include "nessa/selection/facility_location.hpp"
#include "nessa/util/parallelism.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::selection {

struct GreedyResult {
  std::vector<std::size_t> selected;       ///< in selection order
  std::vector<std::size_t> weights;        ///< CRAIG gamma per selected medoid
  double objective = 0.0;                  ///< F(selected)
  std::size_t gain_evaluations = 0;        ///< # marginal-gain computations
};

/// Plain greedy. k is clamped to the ground-set size.
GreedyResult naive_greedy(const FacilityLocation& fl, std::size_t k,
                          util::Parallelism parallelism = false);

/// Lazy (accelerated) greedy; output identical to naive_greedy. With
/// parallel dispatch, stale heap entries are re-evaluated in batches of 16
/// across the pool (same selections; the evaluation count may exceed the
/// serial path's, but does not depend on the pool size).
GreedyResult lazy_greedy(const FacilityLocation& fl, std::size_t k,
                         util::Parallelism parallelism = false);

/// Stochastic greedy with sample size ceil((n/k) * ln(1/epsilon)). Sampling
/// always happens on the calling thread, so parallel dispatch does not
/// perturb the rng stream.
GreedyResult stochastic_greedy(const FacilityLocation& fl, std::size_t k,
                               util::Rng& rng, double epsilon = 0.1,
                               util::Parallelism parallelism = false);

}  // namespace nessa::selection

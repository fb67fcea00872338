// Submodular facility-location objective over gradient embeddings — the
// NeSSA selection model (paper Eq. 5).
//
// Given per-example gradient embeddings g_1..g_n, define the similarity
//     sim(i, j) = c0 - ||g_i - g_j||^2,   c0 = max_{i,j} ||g_i - g_j||^2,
// so all similarities are >= 0, and the monotone submodular objective
//     F(S) = sum_i max_{j in S} sim(i, j).
// Maximizing F under |S| <= k is the k-medoid upper bound of the gradient
// estimation error (Eq. 3-4); the greedy maximizers in greedy.hpp carry the
// (1 - 1/e) guarantee.
//
// The class owns a dense n x n similarity matrix — exactly what the FPGA
// kernel holds in on-chip BRAM, which is why §3.2.3 partitions the dataset
// into chunks before building it. memory_bytes() reports that footprint so
// the SmartSSD model can enforce its 4.32 MB budget.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nessa/tensor/tensor.hpp"
#include "nessa/util/parallelism.hpp"

namespace nessa::selection {

using tensor::Tensor;

class FacilityLocation {
 public:
  /// Build from embeddings (rows are examples). O(n^2 d) via a GEMM.
  /// `parallelism` both parallelizes the build and becomes the instance's
  /// parallel knob (see set_parallel). Bool call sites keep working through
  /// util::Parallelism's implicit conversions.
  static FacilityLocation from_embeddings(
      const Tensor& embeddings, util::Parallelism parallelism = true);

  /// Build directly from a precomputed similarity matrix (must be square,
  /// non-negative; used by tests).
  static FacilityLocation from_similarity(Tensor similarity);

  /// Parallel knob: when set, value()/add() dispatch their reductions onto
  /// the global thread pool. Results are bit-identical to the serial path
  /// for any thread count — reductions always use the same fixed-grain
  /// block structure (see util::chunked_reduce). Accepts a
  /// util::Parallelism (or bool, via its implicit conversion).
  void set_parallel(util::Parallelism parallelism) noexcept {
    parallel_ = parallelism.enabled;
  }
  [[nodiscard]] bool parallel() const noexcept { return parallel_; }

  [[nodiscard]] std::size_t ground_size() const noexcept { return n_; }
  [[nodiscard]] float similarity(std::size_t i, std::size_t j) const {
    return sim_(i, j);
  }
  [[nodiscard]] float c0() const noexcept { return c0_; }

  /// Bytes of on-chip memory the kernel needs for this instance (similarity
  /// matrix + coverage vector).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Objective value of an arbitrary set (O(n |S|)); empty set has value 0.
  [[nodiscard]] double value(std::span<const std::size_t> set) const;

  /// Incremental evaluation state for greedy maximization: coverage[i] is
  /// the best similarity of i to the selected set so far, and owner[i] the
  /// position in `selected` of the element that first reached it.
  struct State {
    std::vector<float> coverage;
    std::vector<std::uint32_t> owner;
    std::vector<std::size_t> selected;
    double value = 0.0;

    /// CRAIG medoid weights: gamma_p = |{i : owner[i] == p}|, one per
    /// selected element; they sum to n. An element no selected element
    /// covers above 0 counts for the first one. This is
    /// argmax_{s in S} sim(i, s) with ties broken toward the
    /// earliest-selected element, for non-NaN similarities.
    [[nodiscard]] std::vector<std::size_t> medoid_weights() const;
  };

  [[nodiscard]] State empty_state() const;

  /// Marginal gain F(S + j) - F(S) given the coverage state. O(n).
  /// Streams row j while prefetching row j + 1 (the next candidate of an
  /// ascending scan).
  [[nodiscard]] double marginal_gain(const State& state, std::size_t j) const;

  /// The same gain, prefetching row `next` instead: the candidate the
  /// caller will evaluate after j. The hint never changes the result.
  [[nodiscard]] double marginal_gain(const State& state, std::size_t j,
                                     std::size_t next) const;

  /// Ground-set size at which batched gain evaluation switches to the
  /// column-tiled kernel: past ~4096 elements the coverage vector (16 KB+)
  /// no longer stays L1-resident next to a streaming similarity row, so
  /// per-candidate evaluation re-fetches it every time.
  static constexpr std::size_t kTiledThreshold = 4096;

  /// Marginal gains of the contiguous candidate block [j0, j1), written to
  /// out[0 .. j1-j0). Bit-identical to calling marginal_gain per candidate
  /// for any n; for n >= kTiledThreshold the block is evaluated with one
  /// column-tiled pass per coverage tile shared across the batch.
  void marginal_gains(const State& state, std::size_t j0, std::size_t j1,
                      double* out) const;

  /// Add j to the state, updating coverage, owners and value. O(n).
  void add(State& state, std::size_t j) const;

 private:
  FacilityLocation() = default;

  std::size_t n_ = 0;
  float c0_ = 0.0f;
  bool parallel_ = false;
  Tensor sim_;  // [n, n]
};

}  // namespace nessa::selection

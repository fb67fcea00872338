#include "nessa/selection/facility_location.hpp"

#include <algorithm>
#include <stdexcept>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/cpu_isa.hpp"
#include "nessa/util/parallel_reduce.hpp"
#include "nessa/util/thread_pool.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define NESSA_AVX_DISPATCH 1
#endif

namespace nessa::selection {

namespace {

/// Block size for the deterministic chunked reductions over the ground set.
/// Fixed (never derived from the thread count) so serial and parallel runs
/// share one accumulation order.
constexpr std::size_t kReduceGrain = 4096;

/// Column tile for the batched gain kernel: a 4096-float coverage slice
/// (16 KB) stays L1-resident while a batch of candidate rows streams
/// against it, instead of re-fetching the full coverage vector once per
/// candidate. Must stay a multiple of 16 so lane l always sums elements at
/// offset l mod 16 (see clamped_delta_accum).
constexpr std::size_t kGainColTile = 4096;
/// Candidates evaluated per coverage-tile pass. Matches the greedy drivers'
/// candidate grain; 16 lane blocks of 128 B sit comfortably in L1 next to
/// the coverage tile.
constexpr std::size_t kGainBatch = 16;

// The positive-part sum below is THE selection hot loop (one call per
// marginal_gain). It uses sixteen double accumulator lanes — lane l sums
// the elements at offset l mod 16 — combined in a fixed pairwise tree,
// with the tail folded into lane 0. The compiler will not vectorize a
// strict float→double reduction on its own, so the SSE2 and AVX paths
// spell out the same lane structure with intrinsics; every path is
// bit-identical (data is finite, so max(d, 0) and `d > 0 ? d : 0` agree),
// which keeps results independent of the machine the binary runs on.
//
// `pf` is a prefetch hint: the same offsets of `pf` are pulled toward L1
// while `srow` streams. Similarity rows are ~one page each, so the
// hardware prefetcher re-ramps at every candidate row; hinting the next
// candidate's row hides that. Prefetching never changes results — pass
// `srow` itself when there is no meaningful next row.

/// Shared tail + lane-combine for all clamped_delta_sum implementations.
inline double finish_lanes(double* lane, const float* srow, const float* cov,
                           std::size_t i, std::size_t hi) noexcept {
  for (; i < hi; ++i) {
    const float d = srow[i] - cov[i];
    lane[0] += d > 0.0f ? d : 0.0f;
  }
  const double q0 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  const double q1 = (lane[4] + lane[5]) + (lane[6] + lane[7]);
  const double q2 = (lane[8] + lane[9]) + (lane[10] + lane[11]);
  const double q3 = (lane[12] + lane[13]) + (lane[14] + lane[15]);
  return (q0 + q1) + (q2 + q3);
}

#if defined(NESSA_AVX_DISPATCH)
/// AVX variant, selected at runtime: four independent 4-wide accumulator
/// chains hide the vector-add latency that bounds the SSE2 version.
__attribute__((target("avx"))) double clamped_delta_sum_avx(
    const float* srow, const float* cov, const float* pf, std::size_t lo,
    std::size_t hi) noexcept {
  std::size_t i = lo;
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
  const __m256 zero = _mm256_setzero_ps();
  for (; i + 16 <= hi; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pf + i), _MM_HINT_T0);
    const __m256 d07 = _mm256_max_ps(
        _mm256_sub_ps(_mm256_loadu_ps(srow + i), _mm256_loadu_ps(cov + i)),
        zero);
    const __m256 d8f = _mm256_max_ps(
        _mm256_sub_ps(_mm256_loadu_ps(srow + i + 8),
                      _mm256_loadu_ps(cov + i + 8)),
        zero);
    a0 = _mm256_add_pd(a0, _mm256_cvtps_pd(_mm256_castps256_ps128(d07)));
    a1 = _mm256_add_pd(a1, _mm256_cvtps_pd(_mm256_extractf128_ps(d07, 1)));
    a2 = _mm256_add_pd(a2, _mm256_cvtps_pd(_mm256_castps256_ps128(d8f)));
    a3 = _mm256_add_pd(a3, _mm256_cvtps_pd(_mm256_extractf128_ps(d8f, 1)));
  }
  alignas(32) double lane[16];
  _mm256_store_pd(lane + 0, a0);
  _mm256_store_pd(lane + 4, a1);
  _mm256_store_pd(lane + 8, a2);
  _mm256_store_pd(lane + 12, a3);
  return finish_lanes(lane, srow, cov, i, hi);
}

const bool kHasAvx = util::kernel_isa_supported(util::KernelIsa::kAvx);
#endif

double clamped_delta_sum(const float* srow, const float* cov, const float* pf,
                         std::size_t lo, std::size_t hi) noexcept {
#if defined(NESSA_AVX_DISPATCH)
  if (kHasAvx) return clamped_delta_sum_avx(srow, cov, pf, lo, hi);
#endif
  std::size_t i = lo;
#if defined(__SSE2__)
  __m128d acc[8];
  for (auto& a : acc) a = _mm_setzero_pd();
  const __m128 zero = _mm_setzero_ps();
  for (; i + 16 <= hi; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pf + i), _MM_HINT_T0);
    for (std::size_t q = 0; q < 4; ++q) {
      const __m128 d = _mm_max_ps(
          _mm_sub_ps(_mm_loadu_ps(srow + i + 4 * q),
                     _mm_loadu_ps(cov + i + 4 * q)),
          zero);
      acc[2 * q] = _mm_add_pd(acc[2 * q], _mm_cvtps_pd(d));
      acc[2 * q + 1] =
          _mm_add_pd(acc[2 * q + 1], _mm_cvtps_pd(_mm_movehl_ps(d, d)));
    }
  }
  alignas(16) double lane[16];
  for (std::size_t q = 0; q < 8; ++q) _mm_store_pd(lane + 2 * q, acc[q]);
#else
  double lane[16] = {};
  for (; i + 16 <= hi; i += 16) {
    __builtin_prefetch(pf + i);
    for (std::size_t l = 0; l < 16; ++l) {
      const float d = srow[i + l] - cov[i + l];
      lane[l] += d > 0.0f ? d : 0.0f;
    }
  }
#endif
  return finish_lanes(lane, srow, cov, i, hi);
}

// Tiled variant of the same kernel: accumulates [lo, hi) into a caller-held
// 16-lane block instead of producing a scalar, so one candidate's sum can be
// built across several column tiles. With lo and hi multiples of 16, lane l
// still receives exactly the elements at offset l mod 16 in ascending order
// — tiling a full [0, n & ~15) range therefore reproduces the main loop of
// clamped_delta_sum bit for bit, and finish_lanes folds the tail and
// combines the lanes exactly as the untiled kernel does.

#if defined(NESSA_AVX_DISPATCH)
__attribute__((target("avx"))) void clamped_delta_accum_avx(
    double* lane, const float* srow, const float* cov, const float* pf,
    std::size_t lo, std::size_t hi) noexcept {
  __m256d a0 = _mm256_load_pd(lane + 0), a1 = _mm256_load_pd(lane + 4);
  __m256d a2 = _mm256_load_pd(lane + 8), a3 = _mm256_load_pd(lane + 12);
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t i = lo; i + 16 <= hi; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pf + i), _MM_HINT_T0);
    const __m256 d07 = _mm256_max_ps(
        _mm256_sub_ps(_mm256_loadu_ps(srow + i), _mm256_loadu_ps(cov + i)),
        zero);
    const __m256 d8f = _mm256_max_ps(
        _mm256_sub_ps(_mm256_loadu_ps(srow + i + 8),
                      _mm256_loadu_ps(cov + i + 8)),
        zero);
    a0 = _mm256_add_pd(a0, _mm256_cvtps_pd(_mm256_castps256_ps128(d07)));
    a1 = _mm256_add_pd(a1, _mm256_cvtps_pd(_mm256_extractf128_ps(d07, 1)));
    a2 = _mm256_add_pd(a2, _mm256_cvtps_pd(_mm256_castps256_ps128(d8f)));
    a3 = _mm256_add_pd(a3, _mm256_cvtps_pd(_mm256_extractf128_ps(d8f, 1)));
  }
  _mm256_store_pd(lane + 0, a0);
  _mm256_store_pd(lane + 4, a1);
  _mm256_store_pd(lane + 8, a2);
  _mm256_store_pd(lane + 12, a3);
}
#endif

/// Accumulate the clamped deltas of [lo, hi) into `lane` (32-byte aligned,
/// 16 doubles). Caller guarantees lo and hi are multiples of 16.
void clamped_delta_accum(double* lane, const float* srow, const float* cov,
                         const float* pf, std::size_t lo,
                         std::size_t hi) noexcept {
#if defined(NESSA_AVX_DISPATCH)
  if (kHasAvx) {
    clamped_delta_accum_avx(lane, srow, cov, pf, lo, hi);
    return;
  }
#endif
#if defined(__SSE2__)
  __m128d acc[8];
  for (std::size_t q = 0; q < 8; ++q) acc[q] = _mm_load_pd(lane + 2 * q);
  const __m128 zero = _mm_setzero_ps();
  for (std::size_t i = lo; i + 16 <= hi; i += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(pf + i), _MM_HINT_T0);
    for (std::size_t q = 0; q < 4; ++q) {
      const __m128 d = _mm_max_ps(
          _mm_sub_ps(_mm_loadu_ps(srow + i + 4 * q),
                     _mm_loadu_ps(cov + i + 4 * q)),
          zero);
      acc[2 * q] = _mm_add_pd(acc[2 * q], _mm_cvtps_pd(d));
      acc[2 * q + 1] =
          _mm_add_pd(acc[2 * q + 1], _mm_cvtps_pd(_mm_movehl_ps(d, d)));
    }
  }
  for (std::size_t q = 0; q < 8; ++q) _mm_store_pd(lane + 2 * q, acc[q]);
#else
  for (std::size_t i = lo; i + 16 <= hi; i += 16) {
    __builtin_prefetch(pf + i);
    for (std::size_t l = 0; l < 16; ++l) {
      const float d = srow[i + l] - cov[i + l];
      lane[l] += d > 0.0f ? d : 0.0f;
    }
  }
#endif
}

}  // namespace

FacilityLocation FacilityLocation::from_embeddings(
    const Tensor& embeddings, util::Parallelism parallelism) {
  const bool parallel = parallelism.enabled;
  if (embeddings.rank() != 2 || embeddings.rows() == 0) {
    throw std::invalid_argument(
        "FacilityLocation: embeddings must be non-empty rank 2");
  }
  // c0 is the max pairwise distance, found by the distance pass itself.
  float c0 = 0.0f;
  Tensor dists = tensor::pairwise_sq_dists(embeddings, parallel,
                                           util::best_kernel_isa(), &c0);
  const std::size_t n = dists.rows();
  float* flat = dists.flat().data();
  const std::size_t total = n * n;

  auto& pool = util::ThreadPool::global();
  const auto rewrite = [flat, c0](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) flat[i] = c0 - flat[i];
  };
  if (parallel && pool.size() > 1) {
    pool.parallel_for_chunked(0, total, kReduceGrain, rewrite);
  } else {
    rewrite(0, total);
  }

  FacilityLocation fl;
  fl.n_ = n;
  fl.c0_ = c0;
  fl.parallel_ = parallel;
  fl.sim_ = std::move(dists);
  return fl;
}

FacilityLocation FacilityLocation::from_similarity(Tensor similarity) {
  if (similarity.rank() != 2 || similarity.rows() != similarity.cols() ||
      similarity.rows() == 0) {
    throw std::invalid_argument(
        "FacilityLocation: similarity must be square and non-empty");
  }
  float min_sim = similarity[0];
  float max_sim = similarity[0];
  for (float x : similarity.flat()) {
    min_sim = std::min(min_sim, x);
    max_sim = std::max(max_sim, x);
  }
  if (min_sim < 0.0f) {
    throw std::invalid_argument(
        "FacilityLocation: similarities must be non-negative");
  }
  FacilityLocation fl;
  fl.n_ = similarity.rows();
  fl.c0_ = max_sim;
  fl.sim_ = std::move(similarity);
  return fl;
}

std::uint64_t FacilityLocation::memory_bytes() const noexcept {
  return static_cast<std::uint64_t>(n_) * n_ * sizeof(float) +
         static_cast<std::uint64_t>(n_) * sizeof(float);
}

double FacilityLocation::value(std::span<const std::size_t> set) const {
  if (set.empty()) return 0.0;
  const float* sim = sim_.data();
  const std::size_t n = n_;
  return util::chunked_reduce(
      n, kReduceGrain, parallel_, 0.0,
      [sim, n, set](std::size_t lo, std::size_t hi) {
        double total = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          const float* srow = sim + i * n;
          float best = srow[set[0]];
          for (std::size_t p = 1; p < set.size(); ++p) {
            best = std::max(best, srow[set[p]]);
          }
          total += best;
        }
        return total;
      },
      [](double a, double b) { return a + b; });
}

FacilityLocation::State FacilityLocation::empty_state() const {
  State s;
  // Coverage of the empty set is 0 per element (F(empty) = 0); similarities
  // are >= 0 so the first added element can only improve coverage.
  s.coverage.assign(n_, 0.0f);
  s.owner.assign(n_, 0);
  return s;
}

std::vector<std::size_t> FacilityLocation::State::medoid_weights() const {
  std::vector<std::size_t> weights(selected.size(), 0);
  if (selected.empty()) return weights;
  for (const std::uint32_t p : owner) ++weights[p];
  return weights;
}

double FacilityLocation::marginal_gain(const State& state,
                                       std::size_t j) const {
  return marginal_gain(state, j, j + 1 < n_ ? j + 1 : j);
}

double FacilityLocation::marginal_gain(const State& state, std::size_t j,
                                       std::size_t next) const {
  if (j >= n_ || next >= n_) {
    throw std::out_of_range("marginal_gain: index out of range");
  }
  // sim_ is symmetric, so column j == row j; walk the row for locality.
  // No internal pool dispatch: the greedy drivers parallelize across
  // candidates, and the fixed lane structure keeps the value identical on
  // every thread.
  const float* srow = sim_.data() + j * n_;
  return clamped_delta_sum(srow, state.coverage.data(), sim_.data() + next * n_,
                           0, n_);
}

void FacilityLocation::marginal_gains(const State& state, std::size_t j0,
                                      std::size_t j1, double* out) const {
  if (j1 > n_ || j0 > j1) {
    throw std::out_of_range("marginal_gains: range out of bounds");
  }
  if (n_ < kTiledThreshold || j1 - j0 < 2) {
    for (std::size_t j = j0; j < j1; ++j) {
      out[j - j0] = marginal_gain(state, j);
    }
    return;
  }
  // Column-tiled batch: each coverage tile is walked once per batch of
  // candidates while L1-resident; every candidate keeps its own 16-lane
  // partial sums across tiles, so per candidate the element order — and
  // with it the result — matches marginal_gain bit for bit.
  const float* cov = state.coverage.data();
  const std::size_t n16 = n_ & ~static_cast<std::size_t>(15);
  for (std::size_t b0 = j0; b0 < j1; b0 += kGainBatch) {
    const std::size_t b1 = std::min(j1, b0 + kGainBatch);
    alignas(32) double lanes[kGainBatch][16] = {};
    for (std::size_t c0 = 0; c0 < n16; c0 += kGainColTile) {
      const std::size_t c1 = std::min(n16, c0 + kGainColTile);
      for (std::size_t j = b0; j < b1; ++j) {
        const float* srow = sim_.data() + j * n_;
        // Hint the next candidate's slice of the same tile (a hint only —
        // never affects the sums).
        const float* pf = (j + 1 < n_) ? srow + n_ : srow;
        clamped_delta_accum(lanes[j - b0], srow, cov, pf, c0, c1);
      }
    }
    for (std::size_t j = b0; j < b1; ++j) {
      const float* srow = sim_.data() + j * n_;
      out[j - j0] = finish_lanes(lanes[j - b0], srow, cov, n16, n_);
    }
  }
}

void FacilityLocation::add(State& state, std::size_t j) const {
  if (j >= n_) throw std::out_of_range("add: index out of range");
  const float* srow = sim_.data() + j * n_;
  float* cov = state.coverage.data();
  std::uint32_t* owner = state.owner.data();
  const auto pos = static_cast<std::uint32_t>(state.selected.size());
  const double gain = util::chunked_reduce(
      n_, kReduceGrain, parallel_, 0.0,
      [srow, cov, owner, pos](std::size_t lo, std::size_t hi) {
        const double g = clamped_delta_sum(srow, cov, srow, lo, hi);
        // Ownership moves exactly where coverage strictly improves, so the
        // earliest-selected of equally similar elements keeps it. The
        // owner update is a mask blend so the loop vectorizes.
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t moved = 0u - std::uint32_t{srow[i] > cov[i]};
          owner[i] = (owner[i] & ~moved) | (pos & moved);
          cov[i] = std::max(cov[i], srow[i]);
        }
        return g;
      },
      [](double a, double b) { return a + b; });
  state.value += gain;
  state.selected.push_back(j);
}

}  // namespace nessa::selection

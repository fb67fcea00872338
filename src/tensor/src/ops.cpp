#include "nessa/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nessa/util/thread_pool.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define NESSA_AVX_DISPATCH 1
#endif

namespace nessa::tensor {

using util::KernelIsa;

namespace {

constexpr std::size_t kBlock = 64;
/// Multiply-adds below which a GEMM stays on the calling thread: every
/// batch-128 GEMM of the workload MLPs (128 x 100 x 192 = 2.4M and up) runs
/// on the pool.
constexpr std::size_t kParallelThresholdFlops = 1u << 20;
/// B-row tile for the A*B^T kernels: 32 rows of up-to-kBlock floats stay
/// resident in L1 while one A row streams against them.
constexpr std::size_t kRowTile = 32;
/// Independent float accumulator lanes per dot product. Eight lanes break
/// the serial FP dependency chain so the compiler can keep one full SIMD
/// register of partial sums without reassociating a single accumulator.
constexpr std::size_t kLanes = 8;
/// Row width at which pairwise_sq_dists switches to its column-tiled kernel:
/// past ~4096 columns an output row (16 KB+) no longer shares L1 with the
/// streaming X^T row. Bit-identical either way (see the kernel comment);
/// measured tile-size tradeoffs live in docs/performance.md.
constexpr std::size_t kDistTileMinCols = 4096;
/// Column tile for that kernel: a 4096-float slice of the output row (16 KB)
/// takes all k saxpy passes while cache-resident.
constexpr std::size_t kDistColTile = 4096;

void require_rank2(const Tensor& t, const char* who) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(who) + ": tensor must be rank 2");
  }
}

/// Lane-unrolled dot product of two contiguous float rows. Fixed
/// accumulation order: lane partials combined pairwise, tail appended last.
float dot_lanes(const float* a, const float* b, std::size_t k) noexcept {
  float acc[kLanes] = {};
  std::size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += a[p + l] * b[p + l];
  }
  float tail = 0.0f;
  for (; p < k; ++p) tail += a[p] * b[p];
  return (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
          ((acc[4] + acc[5]) + (acc[6] + acc[7]))) +
         tail;
}

/// Inner kernel: C[r0:r1) += A-rows * B, blocked over k and n.
/// A is (m x k), B is (k x n), C is (m x n), all row-major raw pointers.
void gemm_rows(const float* a, const float* b, float* c, std::size_t r0,
               std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t kk = 0; kk < k; kk += kBlock) {
    const std::size_t kend = std::min(k, kk + kBlock);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::size_t p = kk; p < kend; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// A*B^T kernel for rows [r0, r1): tiles over B rows so a kRowTile slab of
/// B stays cache-hot while each A row streams against it; every output
/// element is a lane-unrolled dot product.
void gemm_abt_rows(const float* a, const float* b, float* c, std::size_t r0,
                   std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kRowTile) {
    const std::size_t j1 = std::min(n, j0 + kRowTile);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::size_t j = j0; j < j1; ++j) {
        crow[j] = dot_lanes(arow, b + j * k, k);
      }
    }
  }
}

/// A^T*B kernel for output rows [r0, r1): C row p = sum over i of
/// A[i][p] * B row i, in increasing i.
void gemm_atb_rows(const float* a, const float* b, float* c, std::size_t r0,
                   std::size_t r1, std::size_t m, std::size_t k,
                   std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t p = r0; p < r1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* crow = c + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// What the pairwise-distance kernels read: X (m x k), its transpose and
/// the squared row norms.
struct DistInputs {
  const float* x;
  const float* xt;
  const float* sq;
  std::size_t m, k;
};

/// Rows [r0, r1) of the pairwise distance matrix, each built with
/// contiguous saxpy passes over X^T:
///   d[i][j] = sq[i] + sq[j];  d[i][j] += (-2 x[i][t]) * x[j][t] for each t
/// then clamped with std::max(0, d) (a NaN becomes 0) and the diagonal set
/// to 0. row_max[i] receives the largest entry of row i. Gradient
/// embeddings are short (k ~ 10s), so a per-pair dot product would be pure
/// call overhead. d(i,j) == d(j,i) exactly: -2*a is exact in floating
/// point, so the term sequences are bit-identical either way. Rows of m >=
/// kDistTileMinCols run column-tiled: each drow slice receives all its k
/// terms while L1-resident instead of the whole row streaming through cache
/// once per embedding dimension; per element the term order is unchanged.
void sq_dist_rows(const DistInputs& in, std::size_t r0, std::size_t r1,
                  float* d, float* row_max) {
  const std::size_t m = in.m, k = in.k;
  const std::size_t jtile = m >= kDistTileMinCols ? kDistColTile : m;
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = in.x + i * k;
    float* drow = d + i * m;
    const float sqi = in.sq[i];
    for (std::size_t j0 = 0; j0 < m; j0 += jtile) {
      const std::size_t j1 = std::min(m, j0 + jtile);
      for (std::size_t j = j0; j < j1; ++j) drow[j] = sqi + in.sq[j];
      for (std::size_t t = 0; t < k; ++t) {
        const float av = -2.0f * arow[t];
        const float* xtrow = in.xt + t * m;
        for (std::size_t j = j0; j < j1; ++j) drow[j] += av * xtrow[j];
      }
      for (std::size_t j = j0; j < j1; ++j) {
        drow[j] = std::max(0.0f, drow[j]);
      }
    }
    drow[i] = 0.0f;
    float mx = 0.0f;
    for (std::size_t j = 0; j < m; ++j) mx = std::max(mx, drow[j]);
    row_max[i] = mx;
  }
}

// ---- AVX kernels -----------------------------------------------------------
//
// Each reproduces the scalar kernel above bit for bit. An output element
// sees the same products, each rounded by its own multiply (no FMA), added
// in the same order to an accumulator that starts at +0; only which
// elements share a register changes. matmul and matmul_at_b first gather
// an output row's nonzero A terms, so a ReLU zero is skipped exactly as the
// scalar `if (av == 0.0f) continue` skips it (a zero never multiplies an
// inf or NaN), and the inner loop has no data-dependent branch.
// matmul_a_bt keeps dot_lanes's eight lanes in one register per element and
// reduces them with dot_lanes's pairwise tree.

#if defined(NESSA_AVX_DISPATCH)

/// One nonzero A term of an output row: its multiplier and B row.
struct Term {
  const float* brow;
  float av;
};

/// crow[j, j + 8 * NV) = sum over terms of av * brow[j, ...), all NV
/// vectors held in registers across the term list.
template <std::size_t NV>
__attribute__((target("avx"))) inline void axpy_tile_avx(
    const Term* terms, std::size_t count, std::size_t j, float* crow) {
  __m256 acc[NV];
  for (auto& v : acc) v = _mm256_setzero_ps();
  for (std::size_t t = 0; t < count; ++t) {
    const __m256 av = _mm256_set1_ps(terms[t].av);
    const float* brow = terms[t].brow + j;
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8 * v)));
    }
  }
  for (std::size_t v = 0; v < NV; ++v) {
    _mm256_storeu_ps(crow + j + 8 * v, acc[v]);
  }
}

/// A mask enabling the first `cols` (< 8) lanes, for the last n % 8
/// columns' masked loads and stores.
__attribute__((target("avx"))) inline __m256i tail_mask(std::size_t cols) {
  static constexpr std::int32_t kMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - cols));
}

/// The last n % 8 columns, through masked loads and stores.
__attribute__((target("avx"))) void axpy_tail_avx(const Term* terms,
                                                  std::size_t count,
                                                  std::size_t j,
                                                  std::size_t cols,
                                                  float* crow) {
  const __m256i mask = tail_mask(cols);
  __m256 acc = _mm256_setzero_ps();
  for (std::size_t t = 0; t < count; ++t) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(terms[t].av),
                           _mm256_maskload_ps(terms[t].brow + j, mask)));
  }
  _mm256_maskstore_ps(crow + j, mask, acc);
}

/// One output row of n columns from its term list.
__attribute__((target("avx"))) void axpy_row_avx(const Term* terms,
                                                 std::size_t count,
                                                 std::size_t n, float* crow) {
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) axpy_tile_avx<8>(terms, count, j, crow);
  switch ((n - j) / 8) {
    case 7: axpy_tile_avx<7>(terms, count, j, crow); break;
    case 6: axpy_tile_avx<6>(terms, count, j, crow); break;
    case 5: axpy_tile_avx<5>(terms, count, j, crow); break;
    case 4: axpy_tile_avx<4>(terms, count, j, crow); break;
    case 3: axpy_tile_avx<3>(terms, count, j, crow); break;
    case 2: axpy_tile_avx<2>(terms, count, j, crow); break;
    case 1: axpy_tile_avx<1>(terms, count, j, crow); break;
    default: break;
  }
  j += (n - j) / 8 * 8;
  if (j < n) axpy_tail_avx(terms, count, j, n - j, crow);
}

__attribute__((target("avx"))) void gemm_rows_avx(
    const float* a, const float* b, float* c, std::size_t r0, std::size_t r1,
    std::size_t k, std::size_t n) {
  std::vector<Term> terms(k);
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    std::size_t count = 0;
    for (std::size_t p = 0; p < k; ++p) {
      terms[count] = {b + p * n, arow[p]};
      count += arow[p] != 0.0f ? 1 : 0;  // zeros dropped, branch-free
    }
    axpy_row_avx(terms.data(), count, n, c + i * n);
  }
}

/// Output rows per term-gathering pass of gemm_atb_rows_avx: their A
/// values sit side by side in every A row (one cache line for 16).
constexpr std::size_t kAtbRowGroup = 16;

__attribute__((target("avx"))) void gemm_atb_rows_avx(
    const float* a, const float* b, float* c, std::size_t r0, std::size_t r1,
    std::size_t m, std::size_t k, std::size_t n) {
  std::vector<Term> terms(kAtbRowGroup * m);
  for (std::size_t p0 = r0; p0 < r1; p0 += kAtbRowGroup) {
    const std::size_t rows = std::min(kAtbRowGroup, r1 - p0);
    std::size_t count[kAtbRowGroup] = {};
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k + p0;
      for (std::size_t q = 0; q < rows; ++q) {
        const float av = arow[q];
        terms[q * m + count[q]] = {b + i * n, av};
        count[q] += av != 0.0f ? 1 : 0;
      }
    }
    for (std::size_t q = 0; q < rows; ++q) {
      axpy_row_avx(terms.data() + q * m, count[q], n, c + (p0 + q) * n);
    }
  }
}

/// dot_lanes's reduction for four lane vectors at once:
/// out[q] = ((v_q[0] + v_q[1]) + (v_q[2] + v_q[3])) +
///          ((v_q[4] + v_q[5]) + (v_q[6] + v_q[7])),
/// every add keeping the lower lane as its first operand.
__attribute__((target("avx"))) inline __m128 lane_tree4(__m256 v0, __m256 v1,
                                                        __m256 v2, __m256 v3) {
  constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0);
  constexpr int kOdd = _MM_SHUFFLE(3, 1, 3, 1);
  // [v0 01, v0 23, v1 01, v1 23 | v0 45, v0 67, v1 45, v1 67]
  const __m256 s01 = _mm256_add_ps(_mm256_shuffle_ps(v0, v1, kEven),
                                   _mm256_shuffle_ps(v0, v1, kOdd));
  const __m256 s23 = _mm256_add_ps(_mm256_shuffle_ps(v2, v3, kEven),
                                   _mm256_shuffle_ps(v2, v3, kOdd));
  // [v0 0123, v1 0123, v2 0123, v3 0123 | the same for lanes 4567]
  const __m256 q = _mm256_add_ps(_mm256_shuffle_ps(s01, s23, kEven),
                                 _mm256_shuffle_ps(s01, s23, kOdd));
  return _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps(q, 1));
}

/// C[i, i + R) x [j, j + cols) = dot_lanes of A rows against B rows
/// bj[0..4) (cols <= 4; the unused pointers repeat a valid row).
template <std::size_t R>
__attribute__((target("avx"))) inline void dot_tile_avx(
    const float* arow, const float* const* bj, std::size_t k, float* crow,
    std::size_t ldc, std::size_t cols) {
  __m256 acc[R][4];
  for (auto& row : acc) {
    for (auto& v : row) v = _mm256_setzero_ps();
  }
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 av[R];
    for (std::size_t r = 0; r < R; ++r) {
      av[r] = _mm256_loadu_ps(arow + r * k + p);
    }
    for (std::size_t q = 0; q < 4; ++q) {
      const __m256 bv = _mm256_loadu_ps(bj[q] + p);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r][q] = _mm256_add_ps(acc[r][q], _mm256_mul_ps(av[r], bv));
      }
    }
  }
  __m128 tail[R];
  for (auto& t : tail) t = _mm_setzero_ps();
  for (; p < k; ++p) {
    const __m128 bv = _mm_setr_ps(bj[0][p], bj[1][p], bj[2][p], bj[3][p]);
    for (std::size_t r = 0; r < R; ++r) {
      tail[r] = _mm_add_ps(tail[r],
                           _mm_mul_ps(_mm_set1_ps(arow[r * k + p]), bv));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    const __m128 out = _mm_add_ps(
        lane_tree4(acc[r][0], acc[r][1], acc[r][2], acc[r][3]), tail[r]);
    if (cols == 4) {
      _mm_storeu_ps(crow + r * ldc, out);
    } else {
      alignas(16) float lanes[4];
      _mm_store_ps(lanes, out);
      std::copy_n(lanes, cols, crow + r * ldc);
    }
  }
}

__attribute__((target("avx"))) void gemm_abt_rows_avx(
    const float* a, const float* b, float* c, std::size_t r0, std::size_t r1,
    std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kRowTile) {
    const std::size_t j1 = std::min(n, j0 + kRowTile);
    for (std::size_t j = j0; j < j1; j += 4) {
      const std::size_t cols = std::min<std::size_t>(4, j1 - j);
      const float* bj[4];
      for (std::size_t q = 0; q < 4; ++q) {
        bj[q] = b + (j + std::min(q, cols - 1)) * k;
      }
      std::size_t i = r0;
      for (; i + 2 <= r1; i += 2) {
        dot_tile_avx<2>(a + i * k, bj, k, c + i * n + j, n, cols);
      }
      if (i < r1) dot_tile_avx<1>(a + i * k, bj, k, c + i * n + j, n, cols);
    }
  }
}

/// Columns [j, j + 8 * NV) of one distance row, all NV vectors held in
/// registers across the k terms; `av` holds the row's -2 x[i][t]. Adds the
/// clamped values into the running max `mx`.
template <std::size_t NV>
__attribute__((target("avx"))) inline __m256 dist_tile_avx(
    const DistInputs& in, const float* av, __m256 sqi, std::size_t j,
    float* drow, __m256 mx) {
  __m256 acc[NV];
  for (std::size_t v = 0; v < NV; ++v) {
    acc[v] = _mm256_add_ps(sqi, _mm256_loadu_ps(in.sq + j + 8 * v));
  }
  for (std::size_t t = 0; t < in.k; ++t) {
    const __m256 a = _mm256_set1_ps(av[t]);
    const float* xtrow = in.xt + t * in.m + j;
    for (std::size_t v = 0; v < NV; ++v) {
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(a, _mm256_loadu_ps(xtrow + 8 * v)));
    }
  }
  // max(v, 0) returns its second operand when v is NaN, as std::max(0, v)
  // does.
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t v = 0; v < NV; ++v) {
    acc[v] = _mm256_max_ps(acc[v], zero);
    _mm256_storeu_ps(drow + j + 8 * v, acc[v]);
    mx = _mm256_max_ps(mx, acc[v]);
  }
  return mx;
}

/// The last `cols` (< 8) columns of a span, through masked loads and stores;
/// the masked-off lanes are zeroed before they reach the max.
__attribute__((target("avx"))) __m256 dist_tail_avx(
    const DistInputs& in, const float* av, __m256 sqi, std::size_t j,
    std::size_t cols, float* drow, __m256 mx) {
  const __m256i mask = tail_mask(cols);
  __m256 acc = _mm256_add_ps(sqi, _mm256_maskload_ps(in.sq + j, mask));
  for (std::size_t t = 0; t < in.k; ++t) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(av[t]),
                           _mm256_maskload_ps(in.xt + t * in.m + j, mask)));
  }
  acc = _mm256_and_ps(_mm256_max_ps(acc, _mm256_setzero_ps()),
                      _mm256_castsi256_ps(mask));
  _mm256_maskstore_ps(drow + j, mask, acc);
  return _mm256_max_ps(mx, acc);
}

/// Columns [j0, j1) of one distance row.
__attribute__((target("avx"))) __m256 dist_span_avx(
    const DistInputs& in, const float* av, __m256 sqi, std::size_t j0,
    std::size_t j1, float* drow, __m256 mx) {
  std::size_t j = j0;
  for (; j + 64 <= j1; j += 64) mx = dist_tile_avx<8>(in, av, sqi, j, drow, mx);
  switch ((j1 - j) / 8) {
    case 7: mx = dist_tile_avx<7>(in, av, sqi, j, drow, mx); break;
    case 6: mx = dist_tile_avx<6>(in, av, sqi, j, drow, mx); break;
    case 5: mx = dist_tile_avx<5>(in, av, sqi, j, drow, mx); break;
    case 4: mx = dist_tile_avx<4>(in, av, sqi, j, drow, mx); break;
    case 3: mx = dist_tile_avx<3>(in, av, sqi, j, drow, mx); break;
    case 2: mx = dist_tile_avx<2>(in, av, sqi, j, drow, mx); break;
    case 1: mx = dist_tile_avx<1>(in, av, sqi, j, drow, mx); break;
    default: break;
  }
  j += (j1 - j) / 8 * 8;
  if (j < j1) mx = dist_tail_avx(in, av, sqi, j, j1 - j, drow, mx);
  return mx;
}

/// sq_dist_rows with each output element finished in registers: the same
/// sqi + sq[j] start and the same k multiply-then-add terms in ascending t,
/// so every element, and each row's max, match the scalar kernel bit for
/// bit whether or not it column-tiles. The diagonal is skipped (it is set
/// to 0), which splits each row into two spans.
__attribute__((target("avx"))) void sq_dist_rows_avx(const DistInputs& in,
                                                     std::size_t r0,
                                                     std::size_t r1, float* d,
                                                     float* row_max) {
  const std::size_t m = in.m, k = in.k;
  std::vector<float> av(k);
  for (std::size_t i = r0; i < r1; ++i) {
    for (std::size_t t = 0; t < k; ++t) av[t] = -2.0f * in.x[i * k + t];
    const __m256 sqi = _mm256_set1_ps(in.sq[i]);
    float* drow = d + i * m;
    __m256 mx = _mm256_setzero_ps();
    mx = dist_span_avx(in, av.data(), sqi, 0, i, drow, mx);
    mx = dist_span_avx(in, av.data(), sqi, i + 1, m, drow, mx);
    drow[i] = 0.0f;
    // Max is exact in any order over these non-NaN values.
    const __m128 half = _mm_max_ps(_mm256_castps256_ps128(mx),
                                   _mm256_extractf128_ps(mx, 1));
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, half);
    row_max[i] = std::max(std::max(lanes[0], lanes[1]),
                          std::max(lanes[2], lanes[3]));
  }
}

#endif  // NESSA_AVX_DISPATCH

/// The float GEMM kernels for one instruction set.
struct GemmKernels {
  void (*ab)(const float*, const float*, float*, std::size_t, std::size_t,
             std::size_t, std::size_t);
  void (*atb)(const float*, const float*, float*, std::size_t, std::size_t,
              std::size_t, std::size_t, std::size_t);
  void (*abt)(const float*, const float*, float*, std::size_t, std::size_t,
              std::size_t, std::size_t);
};

void require_supported(KernelIsa isa) {
  if (!util::kernel_isa_supported(isa)) {
    throw std::invalid_argument(std::string("tensor: kernel set ") +
                                util::kernel_isa_name(isa) +
                                " is not supported on this CPU");
  }
}

GemmKernels gemm_kernels(KernelIsa isa) {
  require_supported(isa);
#if defined(NESSA_AVX_DISPATCH)
  if (isa >= KernelIsa::kAvx) {
    return {gemm_rows_avx, gemm_atb_rows_avx, gemm_abt_rows_avx};
  }
#endif
  return {gemm_rows, gemm_atb_rows, gemm_abt_rows};
}

using SqDistKernel = void (*)(const DistInputs&, std::size_t, std::size_t,
                              float*, float*);

SqDistKernel sq_dist_kernel(KernelIsa isa) {
  require_supported(isa);
#if defined(NESSA_AVX_DISPATCH)
  if (isa >= KernelIsa::kAvx) return sq_dist_rows_avx;
#endif
  return sq_dist_rows;
}

void run_row_blocks(std::size_t m, std::size_t flops, bool parallel,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  auto& pool = util::ThreadPool::global();
  if (!parallel || flops < kParallelThresholdFlops || pool.size() <= 1 ||
      m < 2 || util::ThreadPool::in_parallel_region()) {
    fn(0, m);
    return;
  }
  // Split into ~4 chunks per thread so a large matrix load-balances across
  // the pool instead of one oversized chunk per worker.
  const std::size_t target_chunks = pool.size() * 4;
  const std::size_t grain =
      std::max<std::size_t>(1, (m + target_chunks - 1) / target_chunks);
  pool.parallel_for_chunked(0, m, grain, fn);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool parallel,
              KernelIsa isa) {
  require_rank2(a, "matmul");
  require_rank2(b, "matmul");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("matmul: inner dim mismatch");
  const auto kernel = gemm_kernels(isa).ab;
  Tensor c({m, n});
  run_row_blocks(m, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    kernel(a.data(), b.data(), c.data(), r0, r1, k, n);
  });
  return c;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b, bool parallel,
                   KernelIsa isa) {
  require_rank2(a, "matmul_at_b");
  require_rank2(b, "matmul_at_b");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != m) {
    throw std::invalid_argument("matmul_at_b: row-count mismatch");
  }
  // C (k x n) = sum over i of outer(A[i,:], B[i,:]). Parallelize over k rows
  // of the output by striding columns of A.
  const auto kernel = gemm_kernels(isa).atb;
  Tensor c({k, n});
  run_row_blocks(k, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    kernel(a.data(), b.data(), c.data(), r0, r1, m, k, n);
  });
  return c;
}

Tensor matmul_a_bt(const Tensor& a, const Tensor& b, bool parallel,
                   KernelIsa isa) {
  require_rank2(a, "matmul_a_bt");
  require_rank2(b, "matmul_a_bt");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) {
    throw std::invalid_argument("matmul_a_bt: inner dim mismatch");
  }
  const auto kernel = gemm_kernels(isa).abt;
  Tensor c({m, n});
  run_row_blocks(m, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    kernel(a.data(), b.data(), c.data(), r0, r1, k, n);
  });
  return c;
}

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_naive");
  require_rank2(b, "matmul_naive");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) {
    throw std::invalid_argument("matmul_naive: inner dim mismatch");
  }
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a(i, p)) * b(p, j);
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  require_rank2(a, "transpose");
  Tensor t({a.cols(), a.rows()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

void add_row_vector(Tensor& a, const Tensor& bias) {
  require_rank2(a, "add_row_vector");
  if (bias.size() != a.cols()) {
    throw std::invalid_argument("add_row_vector: bias length mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] += bias[j];
  }
}

Tensor column_sums(const Tensor& a) {
  require_rank2(a, "column_sums");
  Tensor out({a.cols()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += row[j];
  }
  return out;
}

void softmax_rows(Tensor& a) {
  require_rank2(a, "softmax_rows");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* row = a.data() + i * a.cols();
    float mx = row[0];
    for (std::size_t j = 1; j < a.cols(); ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < a.cols(); ++j) row[j] *= inv;
  }
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  if (a.rank() != 2) {
    throw std::invalid_argument("argmax_rows: tensor must be rank 2");
  }
  std::vector<std::size_t> out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.data() + i * a.cols();
    std::size_t best = 0;
    for (std::size_t j = 1; j < a.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = best;
  }
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out = a;
  for (float& x : out.flat()) x = std::max(0.0f, x);
  return out;
}

void relu_backward(Tensor& grad, const Tensor& pre_activation) {
  if (grad.shape() != pre_activation.shape()) {
    throw std::invalid_argument("relu_backward: shape mismatch");
  }
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (pre_activation[i] <= 0.0f) grad[i] = 0.0f;
  }
}

float squared_l2(std::span<const float> a, std::span<const float> b) noexcept {
  double acc = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc);
}

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  double acc = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> a) noexcept {
  double acc = 0.0;
  for (float x : a) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

Tensor pairwise_sq_dists(const Tensor& x, bool parallel, KernelIsa isa,
                         float* max_out) {
  require_rank2(x, "pairwise_sq_dists");
  const auto kernel = sq_dist_kernel(isa);
  const std::size_t m = x.rows(), k = x.cols();
  std::vector<float> sq(m);
  for (std::size_t i = 0; i < m; ++i) {
    sq[i] = dot_lanes(x.data() + i * k, x.data() + i * k, k);
  }
  std::vector<float> xt(k * m);  // X^T, so the inner loops are unit-stride
  for (std::size_t j = 0; j < m; ++j) {
    const float* row = x.data() + j * k;
    for (std::size_t t = 0; t < k; ++t) xt[t * m + j] = row[t];
  }
  Tensor d({m, m});
  std::vector<float> row_max(m);
  run_row_blocks(m, m * m * (k + 2), parallel,
                 [&](std::size_t r0, std::size_t r1) {
                   kernel({x.data(), xt.data(), sq.data(), m, k}, r0, r1,
                          d.data(), row_max.data());
                 });
  if (max_out != nullptr) {
    float mx = 0.0f;
    for (float v : row_max) mx = std::max(mx, v);
    *max_out = mx;
  }
  return d;
}

}  // namespace nessa::tensor

#include "nessa/quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define NESSA_AVX2_DISPATCH 1
#endif

namespace nessa::quant {

using util::KernelIsa;

namespace {

// ---- quantization ----------------------------------------------------------
//
// q = clamp(round(x * inv), -127, 127) with std::round's ties away from zero.
// All paths clamp first (round is monotone and fixes +-127, so the order
// does not matter). The vector paths then truncate toward zero and add +-1
// where the dropped fraction y - trunc(y) is at least one half in
// magnitude. That fraction is exact because |y| <= 127, so the result
// equals std::round bit for bit. A NaN quantizes to 0, and max|x| skips
// NaNs (max(m, NaN) keeps m), on every path.

float max_abs_scalar(const float* x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void quantize_scalar(const float* x, std::size_t n, float inv,
                     std::int8_t* q) {
  for (std::size_t i = 0; i < n; ++i) {
    const float y = x[i] * inv;
    q[i] = std::isnan(y) ? 0
                         : static_cast<std::int8_t>(std::round(
                               std::clamp(y, -127.0f, 127.0f)));
  }
}

#if defined(__SSE2__)
float max_abs_sse2(const float* x, std::size_t n) {
  const __m128 mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 m = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i), mask), m);
  }
  alignas(16) float lane[4];
  _mm_store_ps(lane, m);
  const float r = std::max(std::max(lane[0], lane[1]),
                           std::max(lane[2], lane[3]));
  return std::max(r, max_abs_scalar(x + i, n - i));
}

__m128i quantize4_sse2(const float* x, __m128 inv) {
  const __m128 raw = _mm_mul_ps(_mm_loadu_ps(x), inv);
  const __m128 y = _mm_min_ps(_mm_max_ps(raw, _mm_set1_ps(-127.0f)),
                              _mm_set1_ps(127.0f));
  __m128i t = _mm_cvttps_epi32(y);
  const __m128 d = _mm_sub_ps(y, _mm_cvtepi32_ps(t));
  t = _mm_sub_epi32(t, _mm_castps_si128(_mm_cmpge_ps(d, _mm_set1_ps(0.5f))));
  t = _mm_add_epi32(t, _mm_castps_si128(_mm_cmple_ps(d, _mm_set1_ps(-0.5f))));
  return _mm_and_si128(t, _mm_castps_si128(_mm_cmpord_ps(raw, raw)));
}

void quantize_sse2(const float* x, std::size_t n, float inv, std::int8_t* q) {
  const __m128 vinv = _mm_set1_ps(inv);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i ab = _mm_packs_epi32(quantize4_sse2(x + i, vinv),
                                       quantize4_sse2(x + i + 4, vinv));
    const __m128i cd = _mm_packs_epi32(quantize4_sse2(x + i + 8, vinv),
                                       quantize4_sse2(x + i + 12, vinv));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(ab, cd));
  }
  quantize_scalar(x + i, n - i, inv, q + i);
}
#endif

#if defined(NESSA_AVX2_DISPATCH)
__attribute__((target("avx2"))) float max_abs_avx2(const float* x,
                                                   std::size_t n) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 m = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x + i), mask), m);
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, m);
  float r = max_abs_scalar(x + i, n - i);
  for (const float v : lane) r = std::max(r, v);
  return r;
}

__attribute__((target("avx2"))) inline __m256i quantize8_avx2(const float* x,
                                                              __m256 inv) {
  const __m256 raw = _mm256_mul_ps(_mm256_loadu_ps(x), inv);
  const __m256 y = _mm256_min_ps(_mm256_max_ps(raw, _mm256_set1_ps(-127.0f)),
                                 _mm256_set1_ps(127.0f));
  __m256i t = _mm256_cvttps_epi32(y);
  const __m256 d = _mm256_sub_ps(y, _mm256_cvtepi32_ps(t));
  t = _mm256_sub_epi32(t, _mm256_castps_si256(_mm256_cmp_ps(
                              d, _mm256_set1_ps(0.5f), _CMP_GE_OQ)));
  t = _mm256_add_epi32(t, _mm256_castps_si256(_mm256_cmp_ps(
                              d, _mm256_set1_ps(-0.5f), _CMP_LE_OQ)));
  return _mm256_and_si256(
      t, _mm256_castps_si256(_mm256_cmp_ps(raw, raw, _CMP_ORD_Q)));
}

__attribute__((target("avx2"))) void quantize_avx2(const float* x,
                                                   std::size_t n, float inv,
                                                   std::int8_t* q) {
  const __m256 vinv = _mm256_set1_ps(inv);
  // packs works within 128-bit lanes; this restores element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_packs_epi32(quantize8_avx2(x + i, vinv),
                                          quantize8_avx2(x + i + 8, vinv));
    const __m256i cd = _mm256_packs_epi32(quantize8_avx2(x + i + 16, vinv),
                                          quantize8_avx2(x + i + 24, vinv));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(q + i),
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order));
  }
  quantize_scalar(x + i, n - i, inv, q + i);
}
#endif

// ---- GEMM ------------------------------------------------------------------
//
// out = rescale * (A[m,k] * W[k,n]) with int8 A and W, summed in int32.
// Each pair (a[2p], a[2p+1]) of an A row is widened to two int16 in one
// int32 word; pmaddwd against the packed weight pair (w[2p][c],
// w[2p+1][c]) yields a[2p]*w[2p][c] + a[2p+1]*w[2p+1][c] per column, which
// is exact (|.| <= 2 * 127^2), and int32 accumulation is exact too, so the
// order of the sum never changes the result. pmaddubsw would be twice as
// wide but saturates its pair sums at int16, so it is not used.
//
// A is walked in blocks of kRowBlock rows (a short last block is padded with
// zero rows), so each weight vector loaded serves four rows. Per block,
// pairs that are zero in all of its rows are dropped up front (ReLU zeros
// cost nothing), and the rest are compacted into `words` (four per pair,
// row-interleaved) with their pair indices. A tile multiplies one row block
// by one panel of 8-column weight blocks into `res` ([4][16] floats); the
// caller copies out the rows and columns that exist.

constexpr std::size_t kRowBlock = 4;
constexpr std::size_t kTileCols = 16;

using TileFn = void (*)(const std::int32_t* words, const std::uint32_t* pair,
                        std::size_t active, const std::int16_t* w,
                        std::size_t pairs, float rescale, float* res);

/// Portable reference: 4 rows x one 8-column block.
void tile_scalar(const std::int32_t* words, const std::uint32_t* pair,
                 std::size_t active, const std::int16_t* w,
                 std::size_t /*pairs*/, float rescale, float* res) {
  for (std::size_t r = 0; r < kRowBlock; ++r) {
    std::int32_t acc[8] = {};
    for (std::size_t t = 0; t < active; ++t) {
      const std::int32_t word = words[t * kRowBlock + r];
      const std::int32_t lo = static_cast<std::int16_t>(word & 0xffff);
      const std::int32_t hi = static_cast<std::int16_t>(word >> 16);
      const std::int16_t* wp = w + std::size_t{pair[t]} * 16;
      for (std::size_t c = 0; c < 8; ++c) {
        acc[c] += lo * wp[2 * c] + hi * wp[2 * c + 1];
      }
    }
    for (std::size_t c = 0; c < 8; ++c) {
      res[r * kTileCols + c] = static_cast<float>(acc[c]) * rescale;
    }
  }
}

#if defined(__SSE2__)
/// 4 rows x one 8-column block (two 4-lane halves).
void tile_sse2(const std::int32_t* words, const std::uint32_t* pair,
               std::size_t active, const std::int16_t* w,
               std::size_t /*pairs*/, float rescale, float* res) {
  __m128i c00 = _mm_setzero_si128(), c01 = c00, c10 = c00, c11 = c00;
  __m128i c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  for (std::size_t t = 0; t < active; ++t) {
    const std::int16_t* wp = w + std::size_t{pair[t]} * 16;
    const __m128i w0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(wp));
    const __m128i w1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wp + 8));
    const std::int32_t* a = words + t * kRowBlock;
    __m128i x = _mm_set1_epi32(a[0]);
    c00 = _mm_add_epi32(c00, _mm_madd_epi16(x, w0));
    c01 = _mm_add_epi32(c01, _mm_madd_epi16(x, w1));
    x = _mm_set1_epi32(a[1]);
    c10 = _mm_add_epi32(c10, _mm_madd_epi16(x, w0));
    c11 = _mm_add_epi32(c11, _mm_madd_epi16(x, w1));
    x = _mm_set1_epi32(a[2]);
    c20 = _mm_add_epi32(c20, _mm_madd_epi16(x, w0));
    c21 = _mm_add_epi32(c21, _mm_madd_epi16(x, w1));
    x = _mm_set1_epi32(a[3]);
    c30 = _mm_add_epi32(c30, _mm_madd_epi16(x, w0));
    c31 = _mm_add_epi32(c31, _mm_madd_epi16(x, w1));
  }
  const __m128 s = _mm_set1_ps(rescale);
  const __m128i acc[kRowBlock][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                                     {c30, c31}};
  for (std::size_t r = 0; r < kRowBlock; ++r) {
    for (std::size_t b = 0; b < 2; ++b) {
      _mm_storeu_ps(res + r * kTileCols + 4 * b,
                    _mm_mul_ps(_mm_cvtepi32_ps(acc[r][b]), s));
    }
  }
}
#endif

#if defined(NESSA_AVX2_DISPATCH)
/// 4 rows x two 8-column blocks.
__attribute__((target("avx2"))) void tile_avx2(
    const std::int32_t* words, const std::uint32_t* pair, std::size_t active,
    const std::int16_t* w, std::size_t pairs, float rescale, float* res) {
  __m256i c00 = _mm256_setzero_si256(), c01 = c00, c10 = c00, c11 = c00;
  __m256i c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  const std::size_t next_block = pairs * 16;
  for (std::size_t t = 0; t < active; ++t) {
    const std::int16_t* wp = w + std::size_t{pair[t]} * 16;
    const __m256i w0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wp));
    const __m256i w1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wp + next_block));
    const std::int32_t* a = words + t * kRowBlock;
    __m256i x = _mm256_set1_epi32(a[0]);
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(x, w0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(x, w1));
    x = _mm256_set1_epi32(a[1]);
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(x, w0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(x, w1));
    x = _mm256_set1_epi32(a[2]);
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(x, w0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(x, w1));
    x = _mm256_set1_epi32(a[3]);
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(x, w0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(x, w1));
    // Pin the accumulators to registers: without this GCC 12 copies them
    // through spare registers and the stack every iteration (about 1.5x
    // slower at the scan's shape).
    __asm__("" : "+x"(c00), "+x"(c01), "+x"(c10), "+x"(c11), "+x"(c20),
            "+x"(c21), "+x"(c30), "+x"(c31));
  }
  const __m256 s = _mm256_set1_ps(rescale);
  const __m256i acc[kRowBlock][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                                     {c30, c31}};
  for (std::size_t r = 0; r < kRowBlock; ++r) {
    for (std::size_t b = 0; b < 2; ++b) {
      _mm256_storeu_ps(res + r * kTileCols + 8 * b,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(acc[r][b]), s));
    }
  }
}
#endif

/// One instruction set's kernels.
struct Kernels {
  float (*max_abs)(const float* x, std::size_t n);
  void (*quantize)(const float* x, std::size_t n, float inv, std::int8_t* q);
  std::size_t panel_blocks;  ///< 8-column weight blocks per GEMM tile
  TileFn tile;
};

Kernels kernels(KernelIsa isa) {
  if (!util::kernel_isa_supported(isa)) {
    throw std::invalid_argument(std::string("quant: kernel set ") +
                                util::kernel_isa_name(isa) +
                                " is not supported on this CPU");
  }
  switch (isa) {
#if defined(NESSA_AVX2_DISPATCH)
    case KernelIsa::kAvx2:
      return {max_abs_avx2, quantize_avx2, 2, tile_avx2};
#endif
#if defined(__SSE2__)
    case KernelIsa::kSse2:
    case KernelIsa::kAvx:
      return {max_abs_sse2, quantize_sse2, 1, tile_sse2};
#endif
    default:
      return {max_abs_scalar, quantize_scalar, 1, tile_scalar};
  }
}

}  // namespace

QuantizedTensor quantize_symmetric(const Tensor& t) {
  return quantize_symmetric(t, util::best_kernel_isa());
}

QuantizedTensor quantize_symmetric(const Tensor& t, KernelIsa isa) {
  const Kernels kernel = kernels(isa);
  QuantizedTensor q;
  q.shape = t.shape();
  q.data.resize(t.size());
  const float max_abs = kernel.max_abs(t.data(), t.size());
  q.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  kernel.quantize(t.data(), t.size(), 1.0f / q.scale, q.data.data());
  return q;
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor t(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    t[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return t;
}

float quantization_error(const Tensor& t, const QuantizedTensor& q) {
  if (t.shape() != q.shape) {
    throw std::invalid_argument("quantization_error: shape mismatch");
  }
  float worst = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const float back = static_cast<float>(q.data[i]) * q.scale;
    worst = std::max(worst, std::abs(t[i] - back));
  }
  return worst;
}

QuantizedTensor quantize_activations(const Tensor& t) {
  return quantize_symmetric(t);
}

PackedWeights pack_weights(const QuantizedTensor& w) {
  if (w.shape.size() != 2) {
    throw std::invalid_argument("quantized_matmul: operands must be rank 2");
  }
  PackedWeights p;
  p.rows = w.shape[0];
  p.cols = w.shape[1];
  p.pairs = (p.rows + 1) / 2;
  p.scale = w.scale;
  // An even block count lets a 16-column panel always read two blocks.
  const std::size_t blocks = 2 * ((p.cols + 15) / 16);
  p.data.assign(blocks * p.pairs * 16, 0);
  for (std::size_t row = 0; row < p.rows; ++row) {
    const std::int8_t* src = w.data.data() + row * p.cols;
    for (std::size_t c = 0; c < p.cols; ++c) {
      p.data[((c / 8) * p.pairs + row / 2) * 16 + (c % 8) * 2 + row % 2] =
          src[c];
    }
  }
  return p;
}

Tensor quantized_matmul(const QuantizedTensor& qa, const PackedWeights& qb,
                        KernelIsa isa) {
  if (qa.shape.size() != 2) {
    throw std::invalid_argument("quantized_matmul: operands must be rank 2");
  }
  const std::size_t m = qa.shape[0], k = qa.shape[1], n = qb.cols;
  if (k != qb.rows) {
    throw std::invalid_argument("quantized_matmul: dim mismatch");
  }
  const Kernels kernel = kernels(isa);
  Tensor out({m, n});
  const float rescale = qa.scale * qb.scale;
  const std::size_t pairs = qb.pairs;
  // Widen A to int16 once (a zero column pads an odd k), so each aligned
  // int16 pair is one pmaddwd broadcast word; then compact every row block,
  // and sweep each weight panel (12 KB at k = 384) across all of them while
  // it stays in L1.
  const std::size_t width = 2 * pairs;
  std::vector<std::int16_t> wide(m * width, 0);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy_n(qa.data.data() + i * k, k, wide.data() + i * width);
  }
  const std::size_t nblocks = (m + kRowBlock - 1) / kRowBlock;
  std::vector<std::uint32_t> pair(nblocks * pairs);
  std::vector<std::int32_t> words(nblocks * pairs * kRowBlock);
  std::vector<std::size_t> active(nblocks, 0);
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * kRowBlock;
    const std::size_t rows = std::min(kRowBlock, m - i0);
    std::uint32_t* bpair = pair.data() + blk * pairs;
    std::int32_t* bwords = words.data() + blk * pairs * kRowBlock;
    std::size_t live = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      std::int32_t any = 0;
      for (std::size_t r = 0; r < kRowBlock; ++r) {
        std::int32_t word = 0;
        if (r < rows) {
          std::memcpy(&word, wide.data() + (i0 + r) * width + 2 * p,
                      sizeof word);
        }
        bwords[live * kRowBlock + r] = word;
        any |= word;
      }
      bpair[live] = static_cast<std::uint32_t>(p);
      live += any != 0 ? 1 : 0;  // zero-pair skip, branch-free
    }
    active[blk] = live;
  }
  alignas(32) float res[kRowBlock * kTileCols];
  for (std::size_t c0 = 0; c0 < n; c0 += 8 * kernel.panel_blocks) {
    const std::int16_t* panel = qb.data.data() + (c0 / 8) * pairs * 16;
    const std::size_t cols = std::min(8 * kernel.panel_blocks, n - c0);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      kernel.tile(words.data() + blk * pairs * kRowBlock,
                  pair.data() + blk * pairs, active[blk], panel, pairs,
                  rescale, res);
      const std::size_t i0 = blk * kRowBlock;
      for (std::size_t r = 0; r < std::min(kRowBlock, m - i0); ++r) {
        std::copy_n(res + r * kTileCols, cols, out.data() + (i0 + r) * n + c0);
      }
    }
  }
  return out;
}

Tensor quantized_matmul(const QuantizedTensor& qa, const QuantizedTensor& qb) {
  if (qa.shape.size() != 2 || qb.shape.size() != 2) {
    throw std::invalid_argument("quantized_matmul: operands must be rank 2");
  }
  if (qa.shape[1] != qb.shape[0]) {
    throw std::invalid_argument("quantized_matmul: dim mismatch");
  }
  return quantized_matmul(qa, pack_weights(qb));
}

}  // namespace nessa::quant

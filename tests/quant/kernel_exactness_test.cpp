// The vector int8 kernels (SSE2, AVX2) must reproduce the portable scalar
// kernels bit for bit, and the scalar kernels must match a naive oracle:
// an int64 triple loop for the GEMM and the std::round/clamp definition for
// quantization. Every kernel set the host supports is checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nessa/quant/quantize.hpp"
#include "nessa/util/cpu_isa.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::quant {
namespace {

using util::KernelIsa;
using util::best_kernel_isa;
using util::kernel_isa_name;
using util::kernel_isa_supported;

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kSse2, KernelIsa::kAvx2}) {
    if (kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

bool same_bits(float a, float b) {
  std::uint32_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// Random int8 tensor with the extremes +-127, about a third zeros, and
/// optionally some all-zero rows (what ReLU leaves behind).
QuantizedTensor random_int8(std::size_t rows, std::size_t cols, float scale,
                            util::Rng& rng, bool zero_rows) {
  QuantizedTensor q;
  q.shape = {rows, cols};
  q.scale = scale;
  q.data.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool dead = zero_rows && r % 3 == 1;
    for (std::size_t c = 0; c < cols; ++c) {
      std::int8_t v = 0;
      const double u = rng.uniform();
      if (dead || u < 0.33) {
        v = 0;
      } else if (u < 0.43) {
        v = rng.bernoulli(0.5) ? 127 : -127;
      } else {
        v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
      }
      q.data[r * cols + c] = v;
    }
  }
  return q;
}

Tensor oracle_matmul(const QuantizedTensor& a, const QuantizedTensor& b) {
  const std::size_t m = a.shape[0], k = a.shape[1], n = b.shape[1];
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += std::int64_t{a.data[i * k + p]} * b.data[p * n + j];
      }
      out[i * n + j] = static_cast<float>(static_cast<std::int32_t>(acc)) *
                       (a.scale * b.scale);
    }
  }
  return out;
}

std::vector<std::int8_t> oracle_quantize(const Tensor& t, float* scale) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(t[i]));
  }
  *scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / *scale;
  std::vector<std::int8_t> q(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    q[i] = static_cast<std::int8_t>(
        std::clamp(std::round(t[i] * inv), -127.0f, 127.0f));
  }
  return q;
}

TEST(Int8Kernels, DispatchPicksASupportedKernelSet) {
  EXPECT_TRUE(kernel_isa_supported(best_kernel_isa()));
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::kScalar));
  EXPECT_STRNE(kernel_isa_name(best_kernel_isa()), "unknown");
}

TEST(Int8Kernels, GemmBitEqualToOracleAcrossShapes) {
  util::Rng rng(2024);
  for (const std::size_t m : {1u, 3u, 4u, 5u, 9u, 130u}) {
    for (const std::size_t k : {1u, 2u, 3u, 7u, 16u, 33u, 384u}) {
      for (const std::size_t n : {1u, 7u, 8u, 9u, 100u, 192u}) {
        const auto a = random_int8(m, k, 0.0173f, rng, /*zero_rows=*/true);
        const auto b = random_int8(k, n, 0.0041f, rng, /*zero_rows=*/false);
        const Tensor expected = oracle_matmul(a, b);
        const PackedWeights packed = pack_weights(b);
        for (const KernelIsa isa : supported_isas()) {
          const Tensor got = quantized_matmul(a, packed, isa);
          ASSERT_EQ(got.shape(), expected.shape());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same_bits(got[i], expected[i]))
                << kernel_isa_name(isa) << " m=" << m << " k=" << k
                << " n=" << n << " at " << i << ": " << got[i] << " vs "
                << expected[i];
          }
        }
      }
    }
  }
}

TEST(Int8Kernels, GemmAtFullScaleExtremes) {
  // Every product at +-127^2 with alternating signs: the largest int32
  // partial sums the quantizer can produce, at the scan's layer width.
  const std::size_t m = 6, k = 385, n = 17;
  QuantizedTensor a{{m, k}, std::vector<std::int8_t>(m * k), 0.5f};
  QuantizedTensor b{{k, n}, std::vector<std::int8_t>(k * n), 0.25f};
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    a.data[i] = i % 5 == 0 ? -127 : 127;
  }
  for (std::size_t i = 0; i < b.data.size(); ++i) {
    b.data[i] = i % 7 == 0 ? -127 : 127;
  }
  const Tensor expected = oracle_matmul(a, b);
  for (const KernelIsa isa : supported_isas()) {
    const Tensor got = quantized_matmul(a, pack_weights(b), isa);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], expected[i])) << kernel_isa_name(isa);
    }
  }
}

TEST(Int8Kernels, AllZeroLeftOperandGivesZeros) {
  util::Rng rng(3);
  QuantizedTensor a{{5, 12}, std::vector<std::int8_t>(60, 0), 1.0f};
  const auto b = random_int8(12, 9, 1.0f, rng, false);
  for (const KernelIsa isa : supported_isas()) {
    const Tensor got = quantized_matmul(a, pack_weights(b), isa);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], 0.0f)) << kernel_isa_name(isa);
    }
  }
}

TEST(Int8Kernels, UnpackedOverloadMatchesPacked) {
  util::Rng rng(11);
  const auto a = random_int8(7, 31, 0.1f, rng, true);
  const auto b = random_int8(31, 13, 0.2f, rng, false);
  const Tensor packed = quantized_matmul(a, pack_weights(b));
  const Tensor unpacked = quantized_matmul(a, b);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    ASSERT_TRUE(same_bits(packed[i], unpacked[i]));
  }
}

TEST(Int8Kernels, PackedDimMismatchThrows) {
  util::Rng rng(5);
  const auto a = random_int8(2, 5, 1.0f, rng, false);
  const auto b = random_int8(6, 3, 1.0f, rng, false);
  EXPECT_THROW((void)quantized_matmul(a, pack_weights(b)),
               std::invalid_argument);
  QuantizedTensor rank1{{4}, std::vector<std::int8_t>(4), 1.0f};
  EXPECT_THROW((void)pack_weights(rank1), std::invalid_argument);
}

void expect_quantize_matches_oracle(const Tensor& t) {
  float scale = 0.0f;
  const std::vector<std::int8_t> expected = oracle_quantize(t, &scale);
  for (const KernelIsa isa : supported_isas()) {
    const QuantizedTensor q = quantize_symmetric(t, isa);
    ASSERT_TRUE(same_bits(q.scale, scale)) << kernel_isa_name(isa);
    ASSERT_EQ(q.shape, t.shape());
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_EQ(q.data[i], expected[i])
          << kernel_isa_name(isa) << " size " << t.size() << " at " << i
          << " x=" << t[i];
    }
  }
}

TEST(Int8Kernels, QuantizeBitEqualAcrossSizesAndDistributions) {
  util::Rng rng(77);
  for (std::size_t n = 1; n <= 100; ++n) {
    Tensor t({n});
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = static_cast<float>(rng.gaussian(0.0, 3.0));
    }
    expect_quantize_matches_oracle(t);
  }
  Tensor big({128, 384});
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 9));
  }
  expect_quantize_matches_oracle(big);
}

TEST(Int8Kernels, QuantizeRoundsExactTiesAwayFromZero) {
  // max|x| = 127 makes the scale 1, so these values reach the rounding step
  // unchanged: exact .5 ties in both signs, and the neighbours a floor(x+.5)
  // rounding would get wrong.
  const std::vector<float> values = {
      127.0f, -127.0f, 0.5f,   -0.5f,  1.5f,   -1.5f,  2.5f,  -2.5f,
      126.5f, -126.5f, 63.5f,  -63.5f, 0.0f,   -0.0f,  0.49999997f,
      -0.49999997f,    1.4999999f,     -1.4999999f,    100.5f, -100.5f,
      3.5f,   -3.5f,   0.25f,  -0.75f, 7.5f,   -7.5f,  12.5f, -12.5f,
      31.5f,  -31.5f,  64.5f,  -64.5f, 5.5f,   -5.5f,  9.5f};
  for (std::size_t n = 1; n <= values.size(); ++n) {
    Tensor t({n + 1});
    t[0] = 127.0f;
    for (std::size_t i = 0; i < n; ++i) t[i + 1] = values[i];
    expect_quantize_matches_oracle(t);
  }
  Tensor t({values.size()});
  std::copy(values.begin(), values.end(), t.data());
  const QuantizedTensor q = quantize_symmetric(t);
  EXPECT_EQ(q.data[2], 1);    // 0.5
  EXPECT_EQ(q.data[3], -1);   // -0.5
  EXPECT_EQ(q.data[6], 3);    // 2.5
  EXPECT_EQ(q.data[7], -3);   // -2.5
  EXPECT_EQ(q.data[8], 127);  // 126.5
  EXPECT_EQ(q.data[9], -127);
  EXPECT_EQ(q.data[14], 0);   // 0.49999997
}

TEST(Int8Kernels, QuantizeMapsNanToZeroOnEveryPath) {
  // The scale ignores NaNs; a NaN itself quantizes to 0 (a float -> int8
  // cast of NaN would be undefined).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t({40});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = i % 3 == 0 ? nan : static_cast<float>(i) - 20.0f;
  }
  const float scale = 19.0f / 127.0f;  // max over the non-NaN entries
  for (const KernelIsa isa : supported_isas()) {
    const QuantizedTensor q = quantize_symmetric(t, isa);
    ASSERT_TRUE(same_bits(q.scale, scale)) << kernel_isa_name(isa);
    for (std::size_t i = 0; i < t.size(); ++i) {
      const auto expected =
          std::isnan(t[i]) ? std::int8_t{0}
                           : static_cast<std::int8_t>(std::clamp(
                                 std::round(t[i] * (1.0f / scale)), -127.0f,
                                 127.0f));
      EXPECT_EQ(q.data[i], expected) << kernel_isa_name(isa) << " at " << i;
    }
  }
}

TEST(Int8Kernels, QuantizeAllZeroTensor) {
  expect_quantize_matches_oracle(Tensor({37}));
}

}  // namespace
}  // namespace nessa::quant

// pairwise_sq_dists must give the portable scalar kernel's bits on every
// kernel set the host supports, serial and on the pool: the facility-
// location similarities, and with them every selection, are built from
// them. The clamp turns NaNs into 0, so the whole matrix, and the maximum
// the pass reports, compare with memcmp. Inputs mix gaussian rows with
// duplicated rows (exact cancellation), rows holding +-inf or NaN, and
// rows large enough that their squared norm overflows. Row counts cover
// each remainder of the 8-wide vectors and 64-wide tiles and the
// column-tiled scalar path (m >= 4096).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/cpu_isa.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::tensor {
namespace {

using util::KernelIsa;

constexpr std::size_t kRows[] = {1, 7, 31, 32, 33, 100, 1000, 4100};
constexpr std::size_t kDims[] = {1, 7, 10, 100};

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kSse2,
                              KernelIsa::kAvx, KernelIsa::kAvx2}) {
    if (util::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Gaussian rows; about 5% repeat an earlier row, 3% hold one +inf, -inf
/// or NaN, and 2% are scaled to 1e19 so their squared norm overflows.
Tensor embedding_rows(std::size_t m, std::size_t k, util::Rng& rng) {
  Tensor t({m, k});
  for (std::size_t i = 0; i < m; ++i) {
    float* row = t.data() + i * k;
    for (std::size_t c = 0; c < k; ++c) {
      row[c] = static_cast<float>(rng.gaussian());
    }
    const double u = rng.uniform(0.0, 1.0);
    const std::size_t col = rng.uniform_int(k);
    if (u < 0.05 && i > 0) {
      std::copy_n(t.data() + rng.uniform_int(i) * k, k, row);
    } else if (u < 0.06) {
      row[col] = std::numeric_limits<float>::infinity();
    } else if (u < 0.07) {
      row[col] = -std::numeric_limits<float>::infinity();
    } else if (u < 0.08) {
      row[col] = std::numeric_limits<float>::quiet_NaN();
    } else if (u < 0.10) {
      for (std::size_t c = 0; c < k; ++c) row[c] *= 1e19f;
    }
  }
  return t;
}

TEST(PairwiseExactness, EveryKernelSetMatchesTheScalarKernel) {
  util::Rng rng(2024);
  for (const std::size_t m : kRows) {
    for (const std::size_t k : kDims) {
      const Tensor x = embedding_rows(m, k, rng);
      float ref_max = -1.0f;
      const Tensor ref =
          pairwise_sq_dists(x, false, KernelIsa::kScalar, &ref_max);
      // The reported maximum is the matrix's.
      float direct = 0.0f;
      for (const float v : ref.flat()) direct = std::max(direct, v);
      ASSERT_EQ(std::memcmp(&ref_max, &direct, sizeof(float)), 0)
          << "m=" << m << " k=" << k;
      for (std::size_t i = 0; i < m; ++i) ASSERT_EQ(ref(i, i), 0.0f);
      for (const KernelIsa isa : supported_isas()) {
        for (const bool parallel : {false, true}) {
          float got_max = -1.0f;
          const Tensor got = pairwise_sq_dists(x, parallel, isa, &got_max);
          const std::string where =
              std::string(util::kernel_isa_name(isa)) + " m=" +
              std::to_string(m) + " k=" + std::to_string(k) +
              (parallel ? " pooled" : " serial");
          ASSERT_EQ(got.shape(), ref.shape()) << where;
          ASSERT_EQ(std::memcmp(got.data(), ref.data(), m * m * sizeof(float)),
                    0)
              << where;
          ASSERT_EQ(std::memcmp(&got_max, &ref_max, sizeof(float)), 0)
              << where;
        }
      }
    }
  }
}

TEST(PairwiseExactness, NonFiniteDistancesClampToZeroOrStayInfinite) {
  // Row 1 makes NaN products against everything, row 2 overflows.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x = Tensor::from({3, 2}, {1.0f, 2.0f, nan, 0.0f, 3e19f, 0.0f});
  for (const KernelIsa isa : supported_isas()) {
    float mx = 0.0f;
    const Tensor d = pairwise_sq_dists(x, false, isa, &mx);
    EXPECT_EQ(d(0, 1), 0.0f) << util::kernel_isa_name(isa);
    EXPECT_EQ(d(1, 2), 0.0f) << util::kernel_isa_name(isa);
    EXPECT_EQ(d(0, 2), inf) << util::kernel_isa_name(isa);
    EXPECT_EQ(mx, inf) << util::kernel_isa_name(isa);
  }
}

}  // namespace
}  // namespace nessa::tensor

// The vector float GEMMs must reproduce the portable scalar kernels bit for
// bit, on every kernel set the host supports and on the pool as well as on
// one thread: training's RunResult depends on every bit of every gradient.
// Inputs carry what trips an inexact kernel: about half of A is +0 or -0
// (a zero A term is skipped, so it must never meet an inf or NaN of B),
// subnormals, and infs and NaNs in B both where A is zero and elsewhere.
// Shapes cover each column remainder of the 8-wide vectors and 32-wide
// tiles, and each reduction-length remainder of the 8-lane dot product.
#include <gtest/gtest.h>

#include <cmath>
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

constexpr std::size_t kCols[] = {1,  7,  8,  9,   15,  16, 17,
                                 63, 64, 65, 100, 192, 384};
constexpr std::size_t kDepths[] = {1, 7, 8, 9, 74, 192, 384};

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kSse2,
                              KernelIsa::kAvx, KernelIsa::kAvx2}) {
    if (util::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// ReLU-like activations: ~45% +0, ~5% -0, ~5% subnormal, the rest normal.
Tensor sparse_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t({r, c});
  for (float& x : t.flat()) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.45) {
      x = 0.0f;
    } else if (u < 0.5) {
      x = -0.0f;
    } else if (u < 0.55) {
      x = std::numeric_limits<float>::denorm_min() *
          static_cast<float>(rng.uniform(-1000.0, 1000.0));
    } else {
      x = static_cast<float>(rng.gaussian());
    }
  }
  return t;
}

/// Gaussian values with ~1% +-inf and NaN scattered anywhere.
Tensor special_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t({r, c});
  for (float& x : t.flat()) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.004) {
      x = std::numeric_limits<float>::infinity();
    } else if (u < 0.007) {
      x = -std::numeric_limits<float>::infinity();
    } else if (u < 0.01) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else {
      x = static_cast<float>(rng.gaussian());
    }
  }
  return t;
}

/// Bit equality, except that any two NaNs are equal. Which NaN an add or
/// multiply of two NaNs returns (sign and payload) is the first operand's
/// on x86, and C++ lets the compiler swap the operands of the scalar
/// kernels' `+` and `*`, so the scalar kernels' own NaN bits change with
/// the compiler and its flags.
void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    std::uint32_t x = 0, y = 0;
    std::memcpy(&x, got.data() + i, sizeof x);
    std::memcpy(&y, want.data() + i, sizeof y);
    ASSERT_EQ(x, y) << what << ": first difference at flat index " << i
                    << " (" << got[i] << " vs " << want[i] << ")";
  }
}

/// Every kernel set, serial and pooled, against the serial scalar kernels.
template <typename Gemm>
void check_all_paths(Gemm gemm, const Tensor& a, const Tensor& b,
                     const std::string& what) {
  const Tensor want = gemm(a, b, false, KernelIsa::kScalar);
  for (const KernelIsa isa : supported_isas()) {
    const std::string who = what + " " + util::kernel_isa_name(isa);
    expect_same_bits(gemm(a, b, false, isa), want, who + " serial");
    expect_same_bits(gemm(a, b, true, isa), want, who + " pooled");
  }
}

TEST(GemmExactness, MatmulMatchesScalarOnEveryShape) {
  for (const std::size_t n : kCols) {
    for (const std::size_t k : kDepths) {
      util::Rng rng(n * 131 + k);
      const std::size_t m = 33;
      const Tensor a = sparse_matrix(m, k, rng);
      const Tensor b = special_matrix(k, n, rng);
      check_all_paths(
          [](const Tensor& x, const Tensor& y, bool par, KernelIsa isa) {
            return matmul(x, y, par, isa);
          },
          a, b, "matmul n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

TEST(GemmExactness, MatmulAtBMatchesScalarOnEveryShape) {
  for (const std::size_t n : kCols) {
    for (const std::size_t k : kDepths) {
      util::Rng rng(n * 137 + k);
      const std::size_t m = 33;
      const Tensor a = sparse_matrix(m, k, rng);
      const Tensor b = special_matrix(m, n, rng);
      check_all_paths(
          [](const Tensor& x, const Tensor& y, bool par, KernelIsa isa) {
            return matmul_at_b(x, y, par, isa);
          },
          a, b,
          "matmul_at_b n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

TEST(GemmExactness, MatmulABtMatchesScalarOnEveryShape) {
  for (const std::size_t n : kCols) {
    for (const std::size_t k : kDepths) {
      util::Rng rng(n * 139 + k);
      const std::size_t m = 33;
      const Tensor a = sparse_matrix(m, k, rng);
      const Tensor b = special_matrix(n, k, rng);
      check_all_paths(
          [](const Tensor& x, const Tensor& y, bool par, KernelIsa isa) {
            return matmul_a_bt(x, y, par, isa);
          },
          a, b,
          "matmul_a_bt n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

// The workload MLP's batch-128 shapes (74 -> 384 -> 192 -> 100), which the
// pool splits into row chunks.
TEST(GemmExactness, TrainingShapesMatchScalarOnThePool) {
  util::Rng rng(7);
  const std::size_t dims[] = {74, 384, 192, 100};
  for (std::size_t l = 0; l + 1 < 4; ++l) {
    const std::size_t in = dims[l], out = dims[l + 1];
    const Tensor x = sparse_matrix(128, in, rng);
    const Tensor w = special_matrix(in, out, rng);
    const Tensor g = special_matrix(128, out, rng);
    const std::string layer = std::to_string(in) + "x" + std::to_string(out);
    check_all_paths(
        [](const Tensor& p, const Tensor& q, bool par, KernelIsa isa) {
          return matmul(p, q, par, isa);
        },
        x, w, "forward " + layer);
    check_all_paths(
        [](const Tensor& p, const Tensor& q, bool par, KernelIsa isa) {
          return matmul_at_b(p, q, par, isa);
        },
        x, g, "weight grad " + layer);
    check_all_paths(
        [](const Tensor& p, const Tensor& q, bool par, KernelIsa isa) {
          return matmul_a_bt(p, q, par, isa);
        },
        g, w, "input grad " + layer);
  }
}

// A zero A term is skipped, not multiplied: an A column (matmul) or A row
// (matmul_at_b) of zeros keeps the inf and NaN of the B row it meets out of
// every output, on every kernel set.
TEST(GemmExactness, ZeroTermsNeverMeetInfOrNan) {
  util::Rng rng(11);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t m = 9, k = 19, n = 37;
  Tensor a = sparse_matrix(m, k, rng);
  Tensor b = special_matrix(k, n, rng);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!std::isfinite(b(p, j))) b(p, j) = 1.0f;
    }
  }
  for (std::size_t i = 0; i < m; ++i) a(i, 5) = (i % 2 == 0) ? 0.0f : -0.0f;
  for (std::size_t j = 0; j < n; ++j) b(5, j) = (j % 3 == 0) ? nan : inf;
  Tensor bt({m, n});  // B rows for matmul_at_b, the zero row of A is row 4
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) bt(i, j) = (i == 4) ? nan : 2.0f;
  }
  for (std::size_t p = 0; p < k; ++p) a(4, p) = 0.0f;
  for (const KernelIsa isa : supported_isas()) {
    for (const bool par : {false, true}) {
      const Tensor c = matmul(a, b, par, isa);
      for (const float x : c.flat()) {
        ASSERT_TRUE(std::isfinite(x)) << util::kernel_isa_name(isa);
      }
      const Tensor ct = matmul_at_b(a, bt, par, isa);
      for (const float x : ct.flat()) {
        ASSERT_TRUE(std::isfinite(x)) << util::kernel_isa_name(isa);
      }
    }
  }
}

}  // namespace
}  // namespace nessa::tensor

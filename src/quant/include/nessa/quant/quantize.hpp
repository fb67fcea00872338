// Int8 tensor quantization (NeSSA contribution #2: "Quantize the selection
// model for high selection speed").
//
// The FPGA-side selection model runs the target network's forward pass with
// int8 weights: after each GPU training round, weights are quantized and
// shipped back over the P2P link (§3.2.1), cutting both FPGA compute cost
// and feedback-transfer bytes by 4x vs float32.
//
// Symmetric per-tensor quantization: q = clamp(round(x / scale), -127, 127),
// scale = max|x| / 127. Zero maps exactly to 0, which the sparse-friendly
// GEMM path relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "nessa/tensor/tensor.hpp"
#include "nessa/util/cpu_isa.hpp"

namespace nessa::quant {

using tensor::Shape;
using tensor::Tensor;

struct QuantizedTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  float scale = 1.0f;  ///< dequant: x ~= scale * q

  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
  /// Payload bytes when shipped over a link (int8 data + scale).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return data.size() * sizeof(std::int8_t) + sizeof(float);
  }
};

/// Symmetric per-tensor int8 quantization.
QuantizedTensor quantize_symmetric(const Tensor& t);

/// Dequantize back to float32.
Tensor dequantize(const QuantizedTensor& q);

/// Max elementwise |x - dequant(quant(x))|; bounded by scale/2.
float quantization_error(const Tensor& t, const QuantizedTensor& q);

/// Quantize a row-major float activation matrix to int8 with its own scale
/// (dynamic activation quantization, as the FPGA kernel does per batch).
QuantizedTensor quantize_activations(const Tensor& t);

/// Right-hand GEMM operand [k, n] packed once for the int8 kernels: rows
/// taken in pairs and widened to int16, columns split into 8-column blocks
/// (an even number of them, so n is padded to a multiple of 16). Block b
/// holds w[2p + h][8b + c] at data[(b * pairs + p) * 16 + 2c + h]; the odd
/// row of an odd k and the padding columns are zero.
struct PackedWeights {
  std::size_t rows = 0;   ///< k
  std::size_t cols = 0;   ///< n
  std::size_t pairs = 0;  ///< ceil(k / 2)
  float scale = 1.0f;
  std::vector<std::int16_t> data;
};

/// Pack a rank-2 int8 tensor for quantized_matmul.
PackedWeights pack_weights(const QuantizedTensor& w);

/// Symmetric quantization on an explicit kernel set (must be supported).
/// The int8 kernels exist for SSE2 and AVX2; an AVX-only CPU runs SSE2.
QuantizedTensor quantize_symmetric(const Tensor& t, util::KernelIsa isa);

/// Int8 x int8 -> int32 GEMM with float rescale:
/// out(mxn) = dequant( qa(mxk) * qb(kxn) ), out_scale = qa.scale * qb.scale.
/// Products are summed exactly in int32 (for q in [-127, 127], while
/// k <= 133,144), so every kernel set gives the same bits.
Tensor quantized_matmul(const QuantizedTensor& qa, const PackedWeights& qb,
                        util::KernelIsa isa = util::best_kernel_isa());

/// Same product with an unpacked right operand (packs it on every call).
Tensor quantized_matmul(const QuantizedTensor& qa, const QuantizedTensor& qb);

}  // namespace nessa::quant

// Run-time CPU-feature detection for the SIMD kernels.
//
// Every vector kernel in the library (the float GEMMs in tensor, the int8
// scan in quant, the facility-location gain sums in selection) is compiled
// for the portable baseline plus, through function target attributes, for
// wider instruction sets. This is the one place that asks the running CPU
// which of those it may call.
#pragma once

namespace nessa::util {

/// The instruction sets the kernels are built for, narrowest first. kScalar
/// is the portable reference every other path must match bit for bit.
enum class KernelIsa { kScalar, kSse2, kAvx, kAvx2 };

/// Whether this build has kernels for `isa` and the running CPU can run them.
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa) noexcept;

/// The widest supported instruction set.
[[nodiscard]] KernelIsa best_kernel_isa() noexcept;

[[nodiscard]] const char* kernel_isa_name(KernelIsa isa) noexcept;

}  // namespace nessa::util

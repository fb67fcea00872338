#include "nessa/util/cpu_isa.hpp"

#include <initializer_list>

namespace nessa::util {

bool kernel_isa_supported(KernelIsa isa) noexcept {
#if defined(__GNUC__) && defined(__x86_64__)
  static const bool has_avx = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
  }();
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
#else
  constexpr bool has_avx = false;
  constexpr bool has_avx2 = false;
#endif
#if defined(__SSE2__)
  constexpr bool has_sse2 = true;
#else
  constexpr bool has_sse2 = false;
#endif
  switch (isa) {
    case KernelIsa::kScalar: return true;
    case KernelIsa::kSse2: return has_sse2;
    case KernelIsa::kAvx: return has_avx;
    case KernelIsa::kAvx2: return has_avx2;
  }
  return false;
}

KernelIsa best_kernel_isa() noexcept {
  static const KernelIsa best = [] {
    for (const KernelIsa isa :
         {KernelIsa::kAvx2, KernelIsa::kAvx, KernelIsa::kSse2}) {
      if (kernel_isa_supported(isa)) return isa;
    }
    return KernelIsa::kScalar;
  }();
  return best;
}

const char* kernel_isa_name(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kSse2: return "sse2";
    case KernelIsa::kAvx: return "avx";
    case KernelIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

}  // namespace nessa::util

/// \file kernels_dispatch.cpp
/// \brief Runtime kernel registry and dispatcher (paper §IV-A).
///
/// Compiled WITHOUT any ISA-specific flags: this translation unit must be
/// executable on any x86-64 (or non-x86) host, because it runs before — and
/// decides whether — any vector code is entered.  Which per-ISA variants the
/// build compiled in arrives via the TRIGEN_KERNEL_* compile definitions
/// (see src/core/CMakeLists.txt); whether the host can execute them is
/// answered by cpu_features().  Both must agree before get_kernel() hands
/// out a vector kernel — runtime dispatch is the single authority on what
/// executes.

#include <stdexcept>

#include "kernels_detail.hpp"
#include "trigen/common/cpuid.hpp"
#include "trigen/core/kernels.hpp"

namespace trigen::core {

const std::vector<KernelIsa>& all_kernel_isas() {
  static const std::vector<KernelIsa> v = [] {
    std::vector<KernelIsa> out = {KernelIsa::kScalar};
#if defined(TRIGEN_KERNEL_AVX2)
    out.push_back(KernelIsa::kAvx2);
    out.push_back(KernelIsa::kAvx2HarleySeal);
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    out.push_back(KernelIsa::kAvx512Extract);
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    out.push_back(KernelIsa::kAvx512Vpopcnt);
#endif
    return out;
  }();
  return v;
}

bool kernel_available(KernelIsa isa) {
  const auto& f = cpu_features();
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2HarleySeal:
#if defined(TRIGEN_KERNEL_AVX2)
      return f.avx2;
#else
      return false;
#endif
    case KernelIsa::kAvx512Extract:
#if defined(TRIGEN_KERNEL_AVX512)
      return f.avx512f && f.avx512bw;
#else
      return false;
#endif
    case KernelIsa::kAvx512Vpopcnt:
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
      return f.avx512f && f.avx512bw && f.avx512vpopcntdq;
#else
      return false;
#endif
  }
  return false;
}

KernelIsa best_kernel_isa() {
  KernelIsa best = KernelIsa::kScalar;
  for (const KernelIsa isa : all_kernel_isas()) {
    if (kernel_available(isa)) best = isa;
  }
  return best;
}

std::string kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx2HarleySeal: return "avx2-harley-seal";
    case KernelIsa::kAvx512Extract: return "avx512-extract";
    case KernelIsa::kAvx512Vpopcnt: return "avx512-vpopcnt";
  }
  return "unknown";
}

std::optional<KernelIsa> parse_kernel_isa(const std::string& name) {
  for (const KernelIsa isa : all_kernel_isas()) {
    if (kernel_isa_name(isa) == name) return isa;
  }
  return std::nullopt;
}

namespace {

/// The kernel table of `isa`; throws std::runtime_error if unavailable.
const detail::KernelTable& table_of(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  switch (isa) {
    case KernelIsa::kScalar:
      return detail::kScalarKernels;
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
      return detail::kAvx2Kernels;
    case KernelIsa::kAvx2HarleySeal:
      return detail::kAvx2HarleySealKernels;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      return detail::kAvx512ExtractKernels;
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      return detail::kAvx512VpopcntKernels;
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
}

}  // namespace

TripleBlockKernel get_kernel(KernelIsa isa) { return table_of(isa).triple; }

CachedKernelSet get_cached_kernels(KernelIsa isa) {
  return table_of(isa).cached;
}

GenericKernelSet get_generic_kernels(KernelIsa isa) {
  return table_of(isa).generic;
}

BatchKernelSet get_batch_kernels(KernelIsa isa) {
  return table_of(isa).batch;
}

std::size_t kernel_vector_words(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return 1;
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2HarleySeal: return 8;
    case KernelIsa::kAvx512Extract:
    case KernelIsa::kAvx512Vpopcnt: return 16;
  }
  return 1;
}

}  // namespace trigen::core

#pragma once
/// \file kernels_detail.hpp
/// \brief The per-strategy kernel tables the registry reads.
///
/// Each vector strategy lives in a translation unit (kernels_avx2.cpp,
/// kernels_avx512.cpp, kernels_avx512vpopcnt.cpp) that the build system
/// compiles with exactly the ISA flags it needs (-mavx2 / -mavx512f
/// -mavx512bw / -mavx512vpopcntdq) and that instantiates the kernel bodies
/// of kernel_bodies.hpp for its strategies.  The dispatch registry in
/// kernels_dispatch.cpp is compiled portably and selects among the tables
/// at runtime via cpu_features(), so a binary built without -march=native
/// still carries every variant the compiler can emit and never executes
/// one the host cannot run.
///
/// Which tables were compiled in is communicated by the build system
/// through the TRIGEN_KERNEL_AVX2 / TRIGEN_KERNEL_AVX512 /
/// TRIGEN_KERNEL_AVX512VPOPCNT macros (target-wide compile definitions).
///
/// Kernel parameters are __restrict-qualified: the engine never passes
/// aliasing planes (SNP indices of a combination are strictly increasing,
/// the pair path's constant z operands are dedicated buffers, and the
/// prefix cache is written only by the build and extend phases).

#include "trigen/core/kernels.hpp"

#if defined(_MSC_VER)
#define TRIGEN_RESTRICT __restrict
#else
#define TRIGEN_RESTRICT __restrict__
#endif

namespace trigen::core::detail {

/// Every kernel family of one vectorization strategy.
struct KernelTable {
  TripleBlockKernel triple = nullptr;
  CachedKernelSet cached;
  GenericKernelSet generic;
  BatchKernelSet batch;
};

extern const KernelTable kScalarKernels;  // kernels_scalar.cpp
#if defined(TRIGEN_KERNEL_AVX2)
extern const KernelTable kAvx2Kernels;  // kernels_avx2.cpp
extern const KernelTable kAvx2HarleySealKernels;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
extern const KernelTable kAvx512ExtractKernels;  // kernels_avx512.cpp
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
extern const KernelTable kAvx512VpopcntKernels;  // kernels_avx512vpopcnt.cpp
#endif

}  // namespace trigen::core::detail

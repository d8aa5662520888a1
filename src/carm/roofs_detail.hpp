#pragma once
/// \file roofs_detail.hpp
/// \brief Internal declarations of the per-ISA CARM micro-probe loops.
///
/// Same structure as src/core/kernels_detail.hpp: each vector loop lives in
/// a translation unit compiled with per-file ISA flags (roofs_avx2.cpp,
/// roofs_avx512.cpp), so a portable build still measures real vector roofs;
/// roofs.cpp dispatches at runtime via cpu_features() and owns the buffers
/// and the timing.  The ISA units hold only these loops: a header inline
/// such as Stopwatch::seconds() instantiated there would be a weak symbol
/// compiled with vector flags, and the linker may keep that copy for
/// portable callers.

#include <cstddef>
#include <cstdint>

namespace trigen::carm::detail {

#if defined(TRIGEN_KERNEL_AVX2)
// Defined in roofs_avx2.cpp (compiled with -mavx2).
/// `reps` sweeps of 256-bit loads over the 64-byte-aligned words [0, words)
/// of `p`; returns an OR of the loaded words.
std::uint64_t load_sweeps_avx2(const std::uint64_t* p, std::size_t words,
                               std::size_t reps);
/// `iters` rounds of four independent 8-lane adds.
void vector_adds_avx2(std::uint64_t iters);
#endif

#if defined(TRIGEN_KERNEL_AVX512)
// Defined in roofs_avx512.cpp (compiled with -mavx512f -mavx512bw).
/// `iters` rounds of four independent 16-lane adds.
void vector_adds_avx512(std::uint64_t iters);
#endif

}  // namespace trigen::carm::detail

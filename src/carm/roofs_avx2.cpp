/// \file roofs_avx2.cpp
/// \brief AVX2 CARM micro-probe loops: 256-bit loads and adds.
///
/// Compiled with -mavx2 regardless of the global architecture flags; only
/// executed after roofs.cpp confirms AVX2 support via cpu_features().

#include "roofs_detail.hpp"

#if defined(TRIGEN_KERNEL_AVX2)
#include <immintrin.h>

namespace trigen::carm::detail {

std::uint64_t load_sweeps_avx2(const std::uint64_t* p, std::size_t words,
                               std::size_t reps) {
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= words; i += 8) {
      a0 = _mm256_or_si256(
          a0, _mm256_load_si256(reinterpret_cast<const __m256i*>(p + i)));
      a1 = _mm256_or_si256(
          a1, _mm256_load_si256(reinterpret_cast<const __m256i*>(p + i + 4)));
    }
    acc += static_cast<std::uint64_t>(
        _mm256_extract_epi64(_mm256_or_si256(a0, a1), 0));
    for (; i < words; ++i) acc |= p[i];
    // Keeps the optimizer from discarding the sweep.
    asm volatile("" : : "g"(&acc) : "memory");
  }
  return acc;
}

void vector_adds_avx2(std::uint64_t iters) {
  __m256i a = _mm256_set1_epi32(1), b = _mm256_set1_epi32(2),
          c = _mm256_set1_epi32(3), d = _mm256_set1_epi32(4);
  const __m256i inc = _mm256_set1_epi32(1);
  for (std::uint64_t i = 0; i < iters; ++i) {
    a = _mm256_add_epi32(a, inc);
    b = _mm256_add_epi32(b, inc);
    c = _mm256_add_epi32(c, inc);
    d = _mm256_add_epi32(d, inc);
    asm volatile("" : "+x"(a), "+x"(b), "+x"(c), "+x"(d));
  }
}

}  // namespace trigen::carm::detail

#endif  // TRIGEN_KERNEL_AVX2

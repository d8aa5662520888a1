/// \file roofs_avx512.cpp
/// \brief AVX-512 CARM micro-probe loop: 512-bit integer adds.
///
/// Compiled with -mavx512f -mavx512bw regardless of the global architecture
/// flags; only executed after roofs.cpp confirms AVX-512 support via
/// cpu_features().

#include "roofs_detail.hpp"

#if defined(TRIGEN_KERNEL_AVX512)
#include <immintrin.h>

namespace trigen::carm::detail {

void vector_adds_avx512(std::uint64_t iters) {
  __m512i a = _mm512_set1_epi32(1), b = _mm512_set1_epi32(2),
          c = _mm512_set1_epi32(3), d = _mm512_set1_epi32(4);
  const __m512i inc = _mm512_set1_epi32(1);
  for (std::uint64_t i = 0; i < iters; ++i) {
    a = _mm512_add_epi32(a, inc);
    b = _mm512_add_epi32(b, inc);
    c = _mm512_add_epi32(c, inc);
    d = _mm512_add_epi32(d, inc);
    asm volatile("" : "+x"(a), "+x"(b), "+x"(c), "+x"(d));
  }
}

}  // namespace trigen::carm::detail

#endif  // TRIGEN_KERNEL_AVX512

/// \file kernels_avx512.cpp
/// \brief The AVX-512 + extract strategy (Skylake-SP).
///
/// Compiled with -mavx512f -mavx512bw regardless of the global architecture
/// flags; only executed after the runtime dispatcher confirms support.

#include "kernel_bodies.hpp"

#if defined(TRIGEN_KERNEL_AVX512)
#include <immintrin.h>

namespace trigen::core::detail {
namespace {

struct Avx512Extract {
  using V = __m512i;
  static constexpr std::size_t kWords = 16;
  static constexpr int kLabelPopsWindow = 8;
  static constexpr int kFinalWindow = 8;

  static V load(const Word* p) { return _mm512_loadu_si512(p); }
  static void store(Word* p, V v) { _mm512_storeu_si512(p, v); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  static V nor(V a, V b) {
    return _mm512_xor_si512(_mm512_or_si512(a, b), _mm512_set1_epi32(-1));
  }
  static V broadcast(Word w) { return _mm512_set1_epi32(static_cast<int>(w)); }
  static V add_lanes(V a, V b) { return _mm512_add_epi32(a, b); }

  /// Per-dword counts for the batch kernels: nibble LUT (AVX-512BW byte
  /// shuffle) summed into dwords via maddubs(×1) + madd(×1).
  static V lane_popcnt(V v) {
    const __m512i lut = _mm512_broadcast_i32x4(
        _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low_mask = _mm512_set1_epi8(0x0f);
    const __m512i lo = _mm512_and_si512(v, low_mask);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
    const __m512i bytes = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                          _mm512_shuffle_epi8(lut, hi));
    return _mm512_madd_epi16(_mm512_maddubs_epi16(bytes, _mm512_set1_epi8(1)),
                             _mm512_set1_epi16(1));
  }

  /// Two-level extraction feeding the scalar POPCNT unit (the overhead that
  /// makes CI2 the slowest CPU per core in Fig. 3).
  using Acc = std::uint32_t;
  static Acc acc_add(Acc a, V v) {
    return a + half_popcnt(_mm512_extracti64x4_epi64(v, 0)) +
           half_popcnt(_mm512_extracti64x4_epi64(v, 1));
  }
  static std::uint32_t acc_sum(Acc a) { return a; }
  static std::uint32_t half_popcnt(__m256i h) {
    return popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(h, 0))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(h, 1))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(h, 2))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(h, 3)));
  }
};

}  // namespace

constinit const KernelTable kAvx512ExtractKernels =
    kernel_table<Avx512Extract>();

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX512

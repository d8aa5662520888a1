/// \file kernels_avx512vpopcnt.cpp
/// \brief The AVX-512 VPOPCNTDQ strategy (Ice Lake SP).
///
/// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq regardless of the
/// global architecture flags; only executed after the runtime dispatcher
/// confirms support.

#include "kernel_bodies.hpp"

#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
#include <immintrin.h>

namespace trigen::core::detail {
namespace {

struct Avx512Vpopcnt {
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
  static V lane_popcnt(V v) { return _mm512_popcnt_epi32(v); }

  /// §IV-A, last paragraph: vector POPCNT per cell into lane-wise
  /// accumulators, reduced once per call.  A lane gains at most 32 per
  /// word, so 32-bit lanes cannot overflow below 2^26 words.
  using Acc = V;
  static Acc acc_add(Acc a, V v) {
    return _mm512_add_epi32(a, _mm512_popcnt_epi32(v));
  }
  static std::uint32_t acc_sum(Acc a) {
    return static_cast<std::uint32_t>(_mm512_reduce_add_epi32(a));
  }
};

}  // namespace

constinit const KernelTable kAvx512VpopcntKernels =
    kernel_table<Avx512Vpopcnt>();

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX512VPOPCNT

/// \file kernels_avx2.cpp
/// \brief The AVX2 strategies (paper §IV-A, the "AVX" V4 strategy, and the
/// Harley-Seal nibble-LUT alternative for AVX CPUs without vector POPCNT).
///
/// This translation unit is compiled with -mavx2 regardless of the global
/// architecture flags; nothing here may run unless the runtime dispatcher
/// has confirmed AVX2 support via cpu_features().

#include "kernel_bodies.hpp"

#if defined(TRIGEN_KERNEL_AVX2)
#include <immintrin.h>

namespace trigen::core::detail {
namespace {

/// 256-bit logic and lane popcounts shared by both AVX2 strategies.
struct Avx2Ops {
  using V = __m256i;
  static constexpr std::size_t kWords = 8;
  // Sixteen ymm registers, and the LUT popcount needs scratch: G label
  // accumulators (label pops) or 2G (finalize) must leave room.
  static constexpr int kLabelPopsWindow = 4;
  static constexpr int kFinalWindow = 2;

  static V load(const Word* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(Word* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  // No vector NOR on AVX CPUs: OR followed by XOR with all-ones (§IV-A).
  static V nor(V a, V b) {
    return _mm256_xor_si256(_mm256_or_si256(a, b), _mm256_set1_epi32(-1));
  }
  static V broadcast(Word w) { return _mm256_set1_epi32(static_cast<int>(w)); }
  static V add_lanes(V a, V b) { return _mm256_add_epi32(a, b); }

  /// Per-byte set-bit counts via the nibble LUT (Mula's algorithm).
  static V byte_popcnt(V v) {
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
  }
  /// LUT bytes summed into dwords via maddubs(×1) + madd(×1).
  static V lane_popcnt(V v) {
    return _mm256_madd_epi16(
        _mm256_maddubs_epi16(byte_popcnt(v), _mm256_set1_epi8(1)),
        _mm256_set1_epi16(1));
  }
};

/// Four 64-bit extracts, each fed to the scalar POPCNT unit.
struct Avx2Extract : Avx2Ops {
  using Acc = std::uint32_t;
  static Acc acc_add(Acc a, V v) {
    return a +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3)));
  }
  static std::uint32_t acc_sum(Acc a) { return a; }
};

/// LUT byte counts folded with SAD into four 64-bit lanes (cannot overflow
/// for any realistic plane length); one horizontal sum per accumulator.
struct Avx2HarleySeal : Avx2Ops {
  using Acc = V;
  static Acc acc_add(Acc a, V v) {
    return _mm256_add_epi64(
        a, _mm256_sad_epu8(byte_popcnt(v), _mm256_setzero_si256()));
  }
  static std::uint32_t acc_sum(Acc a) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(_mm256_extract_epi64(a, 0)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(a, 1)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(a, 2)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(a, 3)));
  }
};

}  // namespace

constinit const KernelTable kAvx2Kernels = kernel_table<Avx2Extract>();
constinit const KernelTable kAvx2HarleySealKernels =
    kernel_table<Avx2HarleySeal>();

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX2

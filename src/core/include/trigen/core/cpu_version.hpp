#pragma once
/// \file cpu_version.hpp
/// \brief The rungs of the CPU optimization ladder and the library default.

#include <cstdint>
#include <optional>
#include <string>

namespace trigen::core {

/// Which rung of the paper's CPU optimization ladder to run.
enum class CpuVersion {
  kV1Naive,      ///< Fig.-1 layout, phenotype ANDs (memory bound, §IV-A)
  kV2Split,      ///< phenotype-split planes, genotype-2 inferred via NOR
  kV3Blocked,    ///< + loop tiling to L1 (Algorithm 1)
  kV4Vector,     ///< + vector intrinsics (per-ISA POPCNT strategy)
  kV5PairCache,  ///< + the prefix-plane ladder: the 3^j intersection planes
                 ///< of every j-SNP prefix (j = 2..k-1) are built once per
                 ///< (prefix, sample-chunk) and shared by all B_S last-axis
                 ///< SNPs, cutting the hot loop to two ANDs + two POPCNTs
                 ///< per cached plane and word (same per-ISA strategies,
                 ///< bit-identical results).  At k = 2 the counts-only pair
                 ///< path makes this identical to V4.
};

/// The rung every scan runs unless told otherwise: the library options,
/// the CLI `--version`, serve's `version=` and the fleet worker.  V5 is at
/// least as fast as V4 at every order (README, "Optimization ladder").
inline constexpr CpuVersion kDefaultCpuVersion = CpuVersion::kV5PairCache;

std::string cpu_version_name(CpuVersion v);

/// The rung numbered `n` in the scan vocabulary (`--version n`,
/// `version=n`): 1..5 are V1..V5, anything else is nullopt.
std::optional<CpuVersion> cpu_version_from_number(std::uint64_t n);

/// Inverse of cpu_version_from_number: V1..V5 are 1..5.
constexpr std::uint64_t cpu_version_number(CpuVersion v) {
  return static_cast<std::uint64_t>(v) + 1;
}

}  // namespace trigen::core

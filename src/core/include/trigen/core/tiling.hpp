#pragma once
/// \file tiling.hpp
/// \brief Loop-tiling parameter selection (paper §IV-A).
///
/// The blocked kernels process B_S^3 SNP triplets against B_P sample words
/// at a time.  The paper sizes both so the frequency-table array and the
/// data block fit in the L1 data cache (the V3/V4 model; V5 has its own,
/// see ladder_tiling):
///
///   B_S^3 * beta_int * 2 * 27      <= size_FT      (frequency tables)
///   B_S   * B_P * beta_int * 2     <= size_Block   (bit-plane block)
///
/// with beta_int = 4 B.  E.g. Ice Lake SP (48 kB, 12-way L1D): 7 ways for
/// the tables (28 kB) and 4 ways for the block (16 kB) give B_S <= 5.1 and
/// B_P <= 409.6, i.e. the paper's <5, 400> configuration.

#include <cstddef>
#include <cstdint>
#include <string>

#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/core/cpu_version.hpp"
#include "trigen/core/kernels.hpp"

namespace trigen::core {

/// Block sizes for the tiled engine.  `bp_words` counts 32-bit sample words
/// (the beta_int units of the paper's formula).
struct TilingParams {
  std::size_t bs = 5;         ///< SNPs per block (B_S)
  std::size_t bp_words = 400; ///< sample words per block (B_P)

  bool valid() const { return bs > 0 && bp_words > 0; }
};

/// Description of the L1 data cache used to derive tiling parameters.
struct L1Config {
  std::size_t size_bytes = 48 * 1024;
  unsigned ways = 12;
  unsigned ways_for_tables = 7;  ///< ways reserved for the frequency tables
  unsigned ways_for_block = 4;   ///< ways reserved for the streamed block
};

/// The paper's sizing model (V3/V4, the direct walk): B_S solves
/// B_S^order * 4 * 2 * 3^order <= size_FT (the tables of one block tuple
/// hold 3^order cells per class) and B_P solves B_S * B_P * 4 * 2 <=
/// size_Block, rounded down to a multiple of `vector_words` ("B_P is
/// rounded to the closest multiple of the number of 32-bit integers that
/// fit in the vector registers").  V5 has its own model, ladder_tiling.
TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order = 3);

/// The V5 model (order >= 3).  The prefix-outer ladder walk keeps only the
/// B_S tables of one prefix live, so the table ways no longer bound B_S:
///
///   * B_P: the ladder (rungs 2..order-1, prefix_cache_bytes) plus one
///     final-axis SNP's two planes of a chunk fit the block ways,
///     (prefix_cache_bytes(1, order) + 2 * 4) * B_P <= size_Block, rounded
///     down to whole AVX-512 registers (the PrefixPlaneCache stride) and at
///     least kLadderMinBpWords;
///   * B_S: final-axis reuse — every extra z amortizes the per-chunk ladder
///     build — up to kLadderMaxBs[order], the measured knee.
TilingParams ladder_tiling(const L1Config& l1, std::size_t vector_words,
                           unsigned order);

/// V5's B_S per order (index = order; orders 0..2 never use it).
inline constexpr std::size_t kLadderMaxBs[] = {1, 1, 1, 16, 8, 4, 4};
/// Floor of V5's B_P: below it the per-chunk ladder build and kernel-call
/// setup dominate.
inline constexpr std::size_t kLadderMinBpWords = 128;

/// Block tuples every thread should get at least: the per-scan cap on B_S.
inline constexpr std::uint64_t kMinBlockTuplesPerThread = 4;

/// Bytes of live table groups a batched ladder scan keeps per thread: its
/// B_S groups hold 1 + P tables each, so at large P B_S is capped to fit.
/// The groups are written once per chunk and stream from L2; they need no
/// L1 residency.
inline constexpr std::size_t kBatchTableBytes = 512 * 1024;

/// The tile the blocked engine runs: the one entry point behind
/// BasicDetector::run's and run_batched's auto-tiling (a batched scan is
/// the V5 walk) and the heterogeneous coordinator.
/// V1..V4 get the paper's model (V1/V2 never walk blocks; V3 runs the
/// scalar kernels, so its B_P is sized for them), V5 gets ladder_tiling with
/// B_S capped so the block tuples covering `range` — the ranks the scan
/// covers, empty for all C(num_snps, order) — number at least
/// kMinBlockTuplesPerThread per thread (`threads`, 0 = the hardware
/// concurrency).
TilingParams scan_tiling(const L1Config& l1, unsigned order,
                         CpuVersion version, KernelIsa isa,
                         std::size_t num_snps,
                         const combinatorics::RankRange& range,
                         unsigned threads);

/// Top-block layers every shard of a block-aligned plan should span.
inline constexpr std::size_t kMinLayersPerShard = 4;

/// The block size a block-aligned shard plan of `shards` shards cuts at
/// (shard::plan_shards' `block_size`): the B_S a V4/V5 scan of `order`
/// starts from on this L1 (ladder_tiling at order >= 3, the paper's model
/// at order 2), lowered so the `num_snps` SNPs form at least
/// kMinLayersPerShard layers per shard.  It reads neither the thread count,
/// the rung nor the ISA, so the shards of one plan, each planned by its own
/// process, cut at the same ranks; the engine clips its own tile to the
/// shard's range either way.
std::size_t block_split_bs(const L1Config& l1, unsigned order,
                           std::size_t num_snps, unsigned shards);

/// Reads the host's L1D geometry from sysfs; falls back to 32 kB / 8-way
/// when unavailable.  Way split follows the paper: 7 ways for tables, the
/// remainder minus one (prefetcher headroom on >=12-way caches) for blocks.
/// The geometry is read for the CPU the calling thread is currently
/// running on (sched_getcpu) — not cpu0, which reports the wrong L1 for
/// worker threads pinned to E-cores on hybrid parts — scanning that CPU's
/// cache index entries for the level-1 data cache instead of assuming
/// index0.
L1Config detect_l1_config();

/// Injectable form for unit tests and explicit pinning: `sysfs_cpu_root`
/// replaces "/sys/devices/system/cpu" (the directory holding cpuN/), and
/// `cpu` picks the CPU to read (-1 = the calling thread's current CPU,
/// falling back to cpu0 when its entries are missing).
L1Config detect_l1_config(const std::string& sysfs_cpu_root, int cpu = -1);

/// 3^k, the genotype-cell count of one class at interaction order k.
constexpr std::size_t pow3(unsigned k) {
  std::size_t v = 1;
  for (unsigned i = 0; i < k; ++i) v *= 3;
  return v;
}

/// Bytes the frequency tables of one order-k block tuple occupy:
/// B_S^k * 4 * 2 * 3^k.
constexpr std::size_t tuple_tables_bytes(std::size_t bs, unsigned order) {
  std::size_t tuples = 1;
  for (unsigned i = 0; i < order; ++i) tuples *= bs;
  return tuples * 4 * 2 * pow3(order);
}

/// Bytes the prefix-plane ladder occupies for a B_P-word chunk at order k:
/// rungs 2..k-1 hold sum 3^j intersection planes of 32-bit words (zero for
/// k <= 2, the nine-plane pair cache for k == 3).
constexpr std::size_t prefix_cache_bytes(std::size_t bp_words, unsigned order) {
  std::size_t planes = 0;
  for (unsigned j = 2; j < order; ++j) planes += pow3(j);
  return planes * bp_words * 4;
}

}  // namespace trigen::core

#include "trigen/core/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/dataset/bitplanes.hpp"

namespace trigen::core {

TilingParams autotune_tiling(const L1Config& l1, std::size_t vector_words,
                             unsigned order) {
  const double way_bytes =
      static_cast<double>(l1.size_bytes) / std::max(1u, l1.ways);
  const double size_ft = way_bytes * l1.ways_for_tables;
  const double size_block = way_bytes * l1.ways_for_block;

  // B_S^order * 4 * 2 * 3^order <= size_FT
  const double cells = static_cast<double>(pow3(order));
  std::size_t bs = static_cast<std::size_t>(
      std::pow(size_ft / (4.0 * 2 * cells), 1.0 / order));
  bs = std::max<std::size_t>(1, bs);
  while (tuple_tables_bytes(bs + 1, order) <=
         static_cast<std::size_t>(size_ft)) {
    ++bs;
  }
  while (bs > 1 &&
         tuple_tables_bytes(bs, order) > static_cast<std::size_t>(size_ft)) {
    --bs;
  }

  // B_S * B_P * 4 * 2 <= size_Block, B_P a multiple of the vector width.
  std::size_t bp = static_cast<std::size_t>(size_block / (4.0 * 2 * bs));
  if (vector_words > 1) bp = bp / vector_words * vector_words;
  bp = std::max<std::size_t>(std::max<std::size_t>(1, vector_words), bp);

  return TilingParams{bs, bp};
}

TilingParams ladder_tiling(const L1Config& l1, std::size_t vector_words,
                           unsigned order) {
  const double way_bytes =
      static_cast<double>(l1.size_bytes) / std::max(1u, l1.ways);
  const double size_block = way_bytes * l1.ways_for_block;
  // PrefixPlaneCache rounds its per-plane stride up to whole AVX-512
  // registers, so B_P is rounded to that granule: the budgeted footprint
  // is the allocated one.
  const std::size_t granule = std::max(vector_words, dataset::kWordsPerVector);
  const double bytes_per_bp =
      static_cast<double>(prefix_cache_bytes(1, order)) + 4.0 * 2;
  std::size_t bp = static_cast<std::size_t>(size_block / bytes_per_bp);
  bp = std::max(bp / granule, (kLadderMinBpWords + granule - 1) / granule) *
       granule;
  return TilingParams{kLadderMaxBs[std::min<std::size_t>(
                          order, std::size(kLadderMaxBs) - 1)],
                      bp};
}

TilingParams scan_tiling(const L1Config& l1, unsigned order,
                         CpuVersion version, KernelIsa isa,
                         std::size_t num_snps,
                         const combinatorics::RankRange& range,
                         unsigned threads) {
  const KernelIsa walked =
      version == CpuVersion::kV4Vector || version == CpuVersion::kV5PairCache
          ? isa
          : KernelIsa::kScalar;
  const std::size_t vector_words = kernel_vector_words(walked);
  if (version != CpuVersion::kV5PairCache || order < 3) {
    return autotune_tiling(l1, vector_words, order);
  }
  TilingParams t = ladder_tiling(l1, vector_words, order);
  if (num_snps < order) return t;
  // Top SNP of the first and last rank: the range covers the top-block
  // layers between them.
  const std::uint64_t top_first = combinatorics::detail::max_n_with_binom_le(
      range.empty() ? 0 : range.first, order);
  const std::uint64_t top_last =
      range.empty()
          ? num_snps - 1
          : combinatorics::detail::max_n_with_binom_le(range.last - 1, order);
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t want = kMinBlockTuplesPerThread * threads;
  // Layer L holds the C(L + order - 1, order - 1) > L block tuples whose
  // top block is L (the run partition_block_tuples hands the engine):
  // `want` layers, or one layer at L >= want, always qualify, which keeps
  // the binomials small.
  const auto enough = [&](std::uint64_t bs) {
    const std::uint64_t lo = top_first / bs;
    const std::uint64_t hi = top_last / bs + 1;
    if (hi - lo >= want) return true;
    std::uint64_t tuples = 0;
    for (std::uint64_t layer = lo; layer < hi; ++layer) {
      if (layer >= want) return true;
      tuples += combinatorics::n_choose_k(layer + order - 1, order - 1);
      if (tuples >= want) return true;
    }
    return false;
  };
  while (t.bs > 1 && !enough(t.bs)) --t.bs;
  return t;
}

std::size_t block_split_bs(const L1Config& l1, unsigned order,
                           std::size_t num_snps, unsigned shards) {
  const std::size_t bs = order >= 3 ? ladder_tiling(l1, 1, order).bs
                                    : autotune_tiling(l1, 1, order).bs;
  const std::size_t fit =
      num_snps / (kMinLayersPerShard * std::max(1u, shards));
  return std::clamp<std::size_t>(fit, 1, bs);
}

namespace {

/// Parses e.g. "48K" from sysfs cache size files.
std::size_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) value *= 1024;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) value *= 1024 * 1024;
  return value;
}

std::string read_line(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  if (is) std::getline(is, line);
  return line;
}

}  // namespace

L1Config detect_l1_config() {
  return detect_l1_config("/sys/devices/system/cpu", -1);
}

L1Config detect_l1_config(const std::string& sysfs_cpu_root, int cpu) {
  L1Config cfg;
  cfg.size_bytes = 32 * 1024;
  cfg.ways = 8;

  if (cpu < 0) {
#if defined(__linux__)
    cpu = sched_getcpu();
#endif
    if (cpu < 0) cpu = 0;
  }

  // Scan the CPU's cache index entries for the level-1 data cache rather
  // than assuming index0 — sysfs does not guarantee the ordering, and
  // per-CPU entries are what differ on hybrid parts.
  const auto probe = [&](int c) -> bool {
    const std::string base =
        sysfs_cpu_root + "/cpu" + std::to_string(c) + "/cache/index";
    for (int idx = 0; idx < 8; ++idx) {
      const std::string dir = base + std::to_string(idx) + "/";
      const std::string level = read_line(dir + "level");
      if (level.empty()) break;  // no further index entries
      if (level != "1") continue;
      const std::string type = read_line(dir + "type");
      if (type != "Data" && type != "Unified") continue;
      const std::size_t size = parse_size(read_line(dir + "size"));
      if (size == 0) return false;
      cfg.size_bytes = size;
      const unsigned w = static_cast<unsigned>(
          parse_size(read_line(dir + "ways_of_associativity")));
      if (w > 0) cfg.ways = w;
      return true;
    }
    return false;
  };
  if (!probe(cpu) && cpu != 0) probe(0);

  // Paper's split: 7 ways of tables everywhere; on wide (>=12-way) caches
  // keep one spare way for the hardware prefetcher, on 8-way caches use the
  // single remaining way for the block.
  cfg.ways_for_tables = std::min(7u, cfg.ways > 1 ? cfg.ways - 1 : 1u);
  if (cfg.ways >= 12) {
    cfg.ways_for_block = cfg.ways - cfg.ways_for_tables - 1;
  } else {
    cfg.ways_for_block = std::max(1u, cfg.ways - cfg.ways_for_tables);
  }
  return cfg;
}

}  // namespace trigen::core

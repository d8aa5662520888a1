#pragma once
/// \file blocked_engine.hpp
/// \brief Cache-blocked combination evaluation at any order k >= 2 (paper
/// Algorithm 1, V3/V4/V5, order-generalized).
///
/// The engine walks SNP *block* tuples (b_0 <= ... <= b_{k-1}, each covering
/// B_S SNPs) and streams the sample dimension in B_P-word chunks, so every
/// loaded cache line is reused by up to B_S^{k-1} combinations before
/// eviction.  The direct walk holds the frequency tables of all <= B_S^k
/// contained SNP combinations in an L1-resident array; the ladder walk
/// holds the B_S table groups of one prefix.
///
/// Each walk is written once for every order: a clipped function template
/// whose axis walk (`engine_detail::walk_axes`) recurses over a
/// compile-time axis index, so order k compiles to a k-deep loop nest with
/// the order's hand-tuned kernel at the leaf (`EngineKernels`):
///
///  * `scan_block_tuple` (V3, V4): the direct leaf kernel evaluates each
///    combination from its k SNPs' genotype planes.  V3 is this walk with
///    the scalar kernels; selecting a vector kernel turns it into V4.
///  * `engine_detail::ladder_walk` (V5, k >= 3): one prefix-outer walk
///    over a recursive *prefix-plane ladder*: for each length-(k-1) prefix
///    of the block tuple it streams the sample chunks once, materializing
///    the 3^j intersection planes of each j-SNP prefix (rung j, j =
///    2..k-1) per chunk, and resolves all B_S final-axis SNPs from the
///    last rung before moving on, so only the B_S table groups of one
///    prefix are live.  Rung 2 is built directly from two SNPs' genotype
///    planes; rung j+1 extends rung j by ANDing each plane with one SNP's
///    two stored planes and deriving the third child from the partition
///    identity (the three genotype planes of a SNP partition every sample
///    bit, padding included).  The walk has two leaves, picked at compile
///    time: the sequential leaf (`scan_block_tuple_ladder`) resolves the
///    three final-axis cells of each class with two ANDs + two POPCNTs per
///    word; the batched leaf (`scan_block_tuple_batched`) runs over
///    phenotype-agnostic planes and scores every partition of a phenotype
///    batch in one pass.  At k = 2 there is no rung: the sequential ladder
///    is the direct walk, and the batched scan is
///    `scan_block_pair_batched`.
///
/// All walks share one prologue (`engine_detail::block_bounds`: the block
/// tuple's axis bounds and its rank clip) and one scratch
/// (`TupleBlockScratch`).  The block-tuple rank math and the rank-range ->
/// block-tuple mapping live in trigen/combinatorics/block_partition.hpp;
/// the names are re-exported here for the engine's callers.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/aligned.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/scoring/contingency.hpp"

namespace trigen::core {

using combinatorics::BlockTuple;
using combinatorics::num_block_tuples;
using combinatorics::rank_block_tuple;
using combinatorics::unrank_block_tuple;

/// Clip sentinel: covers every possible rank, i.e. "no filtering".
inline constexpr combinatorics::RankRange kFullRange{
    0, ~std::uint64_t{0}};

/// Per-thread scratch for the V5 prefix-plane ladder: rung j
/// (j = 2..order-1) holds the 3^j intersection planes of the current j-SNP
/// prefix restricted to the current sample chunk, plus their chunk
/// popcounts.  Planes share one stride rounded up to a whole number of
/// AVX-512 registers, so every plane start stays 64-byte aligned
/// (aligned_vector provides the base alignment).  Rung 2 holds the nine
/// x∩y planes of a SNP pair.
class PrefixPlaneCache {
 public:
  /// Grows the ladder to cover rungs 2..order-1 with at least `words` of
  /// per-plane capacity (never shrinks, so a scan reuses one allocation
  /// across every chunk and block).
  void ensure(unsigned order, std::size_t words) {
    const std::size_t s = (words + dataset::kWordsPerVector - 1) /
                          dataset::kWordsPerVector * dataset::kWordsPerVector;
    if (s <= stride_ && order <= order_) return;
    stride_ = std::max(s, stride_);
    order_ = std::max(std::max(order, 3u), order_);
    std::size_t planes = 0;
    for (unsigned j = 2; j < order_; ++j) planes += pow3(j);
    planes_.assign(planes * stride_, 0);
    pops_.assign(planes, 0);
  }

  /// Planes of rung `j` (3^j planes of stride() words each).
  Word* rung(unsigned j) { return planes_.data() + rung_offset(j) * stride_; }
  const Word* rung(unsigned j) const {
    return planes_.data() + rung_offset(j) * stride_;
  }
  /// Chunk popcounts of rung `j`'s planes; zeroed by the engine before the
  /// build/extend call that fills them.
  std::uint32_t* rung_pops(unsigned j) { return pops_.data() + rung_offset(j); }
  const std::uint32_t* rung_pops(unsigned j) const {
    return pops_.data() + rung_offset(j);
  }

  std::size_t stride() const { return stride_; }

 private:
  /// Planes below rung j: sum of 3^i for i in [2, j).
  static std::size_t rung_offset(unsigned j) {
    std::size_t off = 0;
    for (unsigned i = 2; i < j; ++i) off += pow3(i);
    return off;
  }

  unsigned order_ = 0;
  std::size_t stride_ = 0;
  aligned_vector<Word> planes_;
  std::vector<std::uint32_t> pops_;
};

/// The order -> leaf-kernel mapping of the blocked walks, for one
/// vectorization strategy:
///
///  * K = 2: the counts-only pair kernel (the chunk popcounts of the nine
///    x∩y intersections are the pair table), for every rung;
///  * K = 3: the triple-block kernel (direct) and the cached kernel over
///    the ladder's rung 2 (V5 final rung);
///  * K >= 4: the order-generic kernels (direct tuple kernel; ladder
///    extension and final rung).
///
/// Each is one body of src/core/kernel_bodies.hpp: the direct kernel at
/// k = 2, 3 or K, the final rung at count 9 or 3^(K-1).  The ladder's
/// rung 2 is always built by the pair-plane build kernel; the batched
/// engines add the batch kernels.
struct EngineKernels {
  TripleBlockKernel triple = nullptr;
  CachedKernelSet cached;
  GenericKernelSet generic;
  BatchKernelSet batch;

  /// Every family for `isa`; throws std::runtime_error if unavailable.
  static EngineKernels of(KernelIsa isa) {
    return {get_kernel(isa), get_cached_kernels(isa),
            get_generic_kernels(isa), get_batch_kernels(isa)};
  }

  /// Direct leaf: adds the 3^K cells of one class of the combination whose
  /// j-th SNP has class planes (g0[j], g1[j]), over words [w0, w1), into
  /// `ft` (cell = sum g_j * 3^(K-1-j)).
  template <unsigned K>
  void direct(const std::array<const Word*, K>& g0,
              const std::array<const Word*, K>& g1, std::size_t w0,
              std::size_t w1, std::uint32_t* ft) const {
    if constexpr (K == 2) {
      cached.count(g0[0], g1[0], g0[1], g1[1], w0, w1, ft);
    } else if constexpr (K == 3) {
      triple(g0[0], g1[0], g0[1], g1[1], g0[2], g1[2], w0, w1, ft);
    } else {
      generic.direct(g0.data(), g1.data(), K, w0, w1, ft);
    }
  }

  /// Ladder final rung: adds the 3^K cells of one class from the planes
  /// and popcounts of the (K-1)-SNP prefix held in `cache`'s last rung plus
  /// the last SNP's planes z0/z1, over words [w0, w1), into `ft`.
  template <unsigned K>
  void final_rung(const PrefixPlaneCache& cache, const Word* z0,
                  const Word* z1, std::size_t w0, std::size_t w1,
                  std::uint32_t* ft) const {
    static_assert(K >= 3, "the ladder needs a length-2 prefix");
    if constexpr (K == 3) {
      cached.cached(cache.rung(2), cache.stride(), cache.rung_pops(2), z0, z1,
                    w0, w1, ft);
    } else {
      generic.finalize(cache.rung(K - 1), pow3(K - 1), cache.stride(),
                       cache.rung_pops(K - 1), z0, z1, w0, w1, ft);
    }
  }

  /// Ladder rung 2: the nine x∩y planes of a SNP pair over words
  /// [w0, w1), with their chunk popcounts.
  void build_rung2(PrefixPlaneCache& cache, const Word* x0, const Word* x1,
                   const Word* y0, const Word* y1, std::size_t w0,
                   std::size_t w1) const {
    std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
    cached.build(x0, x1, y0, y1, w0, w1, cache.rung(2), cache.stride(),
                 cache.rung_pops(2));
  }

  /// Ladder rung j+1 from rung j and one more SNP's planes s0/s1.  Only the
  /// last rung's popcounts feed a final kernel, so intermediate rungs
  /// (`last` false) skip the POPCNT work.
  void extend_rung(PrefixPlaneCache& cache, unsigned j, const Word* s0,
                   const Word* s1, std::size_t w0, std::size_t w1,
                   bool last) const {
    std::uint32_t* pops = nullptr;
    if (last) {
      pops = cache.rung_pops(j + 1);
      std::fill(pops, pops + pow3(j + 1), 0u);
    }
    generic.extend(cache.rung(j), pow3(j), cache.stride(), s0, s1, w0, w1,
                   cache.rung(j + 1), cache.stride(), pops);
  }

  /// The whole ladder of the (K-1)-SNP prefix comb[0..K-2] over words
  /// [w0, w1) of class `c`: rung 2, then one extension per further prefix
  /// SNP; only the last rung gets popcounts.
  template <unsigned K>
  void build_ladder(PrefixPlaneCache& cache,
                    const dataset::PhenoSplitPlanes& planes, int c,
                    const combinatorics::Combination<K>& comb, std::size_t w0,
                    std::size_t w1) const {
    static_assert(K >= 3, "the ladder needs a length-2 prefix");
    build_rung2(cache, planes.plane(c, comb[0], 0), planes.plane(c, comb[0], 1),
                planes.plane(c, comb[1], 0), planes.plane(c, comb[1], 1), w0,
                w1);
    for (unsigned r = 2; r + 1 < K; ++r) {
      extend_rung(cache, r, planes.plane(c, comb[r], 0),
                  planes.plane(c, comb[r], 1), w0, w1, r + 2 == K);
    }
  }
};

/// Per-thread scratch of the blocked walks, built for the walks'
/// `tiling.bs`: frequency-table groups, layout [local][slot][3^K] uint32.
/// A sequential scan's group has 2 slots (class 0, class 1); a batched
/// scan's has 1 + P (slot 0 the totals, slot 1+p the case table of
/// partition p).  The walk sets how many groups are live: the direct walk
/// holds every combination of a block tuple (B_S^K, local = sum (i_j -
/// base_j) * B_S^{K-1-j}); the ladder walk holds the B_S groups of one
/// prefix (local = z - first z) plus its prefix-plane ladder; the batched
/// pair walk holds one.  Batched scans also keep the chunk's label
/// popcounts.  Storage is allocated on first use by the scanning thread.
template <unsigned K>
class TupleBlockScratch {
 public:
  static constexpr std::size_t kCells = scoring::num_cells(K);

  explicit TupleBlockScratch(std::size_t bs, std::size_t slots = 2)
      : bs_(bs), group_cells_(slots * kCells) {}

  /// Grows the table array (never shrinks) to the B_S^axes groups of
  /// `axes` free axes: K for the direct walk, 1 for the ladder walk, 0 for
  /// the batched pair walk.
  void ensure_groups(unsigned axes) {
    std::size_t count = 1;
    for (unsigned i = 0; i < axes; ++i) count *= bs_;
    if (ft_.size() < count * group_cells_) ft_.resize(count * group_cells_);
  }
  /// Groups the scratch currently holds.
  std::size_t groups() const { return ft_.size() / group_cells_; }
  /// Tables per group.
  std::size_t slots() const { return group_cells_ / kCells; }

  std::uint32_t* group(std::size_t local) {
    return ft_.data() + local * group_cells_;
  }
  std::uint32_t* table(std::size_t local, int cls) {
    return group(local) + static_cast<std::size_t>(cls) * kCells;
  }
  /// Zeroes the group of `local`: the direct walk clears exactly the
  /// combinations a block tuple evaluates, so tail and diagonal blocks
  /// skip the untouched bulk of the bs^K array.
  void clear_group(std::size_t local) {
    std::fill_n(ft_.begin() + static_cast<std::ptrdiff_t>(local * group_cells_),
                group_cells_, 0u);
  }
  /// Zeroes the groups of locals [0, count).
  void clear_groups(std::size_t count) {
    std::fill_n(ft_.begin(), count * group_cells_, 0u);
  }
  /// Chunk popcounts |plane ∩ L_p| of a batched scan, `count` of them
  /// (grows, never shrinks; sequential scans never allocate it).
  std::uint32_t* label_pops(std::size_t count) {
    if (label_pops_.size() < count) label_pops_.resize(count);
    return label_pops_.data();
  }
  /// The prefix-plane ladder (unused and unallocated for V3/V4 scans).
  PrefixPlaneCache& prefix_cache() { return cache_; }

 private:
  std::size_t bs_;
  std::size_t group_cells_;
  std::vector<std::uint32_t> ft_;
  std::vector<std::uint32_t> label_pops_;
  PrefixPlaneCache cache_;
};

namespace engine_detail {

/// Axis bounds of one block tuple: axis j spans SNPs [base[j], end[j]).
template <unsigned K>
struct BlockBounds {
  std::size_t bs = 0;
  std::array<std::size_t, K> base{};
  std::array<std::size_t, K> end{};
  /// Set on a partition's boundary blocks, whose span straddles the clip:
  /// only they filter each emission by rank.
  bool filter = false;

  /// First index of axis j that follows index `prev` of axis j-1.
  std::size_t first(unsigned j, std::size_t prev) const {
    return j == 0 ? base[0] : std::max(base[j], prev + 1);
  }

  /// True when index `i` of axis `j` still admits a strictly increasing
  /// completion through axes j+1..K-1 (the axis bounds are monotone, so the
  /// greedy chain is the only candidate).
  bool has_completion(unsigned j, std::size_t i) const {
    for (unsigned l = j + 1; l < K; ++l) {
      i = std::max(base[l], i + 1);
      if (i >= end[l]) return false;
    }
    return true;
  }

  /// True when `comb` (a combination of this block tuple) lies in `clip`.
  bool emits(const combinatorics::Combination<K>& comb,
             const combinatorics::RankRange& clip) const {
    if (!filter) return true;
    const std::uint64_t rank = combinatorics::rank_combination<K>(comb);
    return rank >= clip.first && rank < clip.last;
  }
};

/// The prologue every walk shares: the axis bounds of block tuple `bt` on
/// a grid of `num_snps` SNPs in blocks of `bs`, and the three-tier rank
/// clip.  Returns nullopt when the block tuple emits nothing: it lies past
/// the last SNP, or its rank span misses `clip` (before any kernel work).
/// A block tuple fully inside `clip` runs with zero per-combination
/// overhead; only a straddling one sets `filter`.
template <unsigned K>
std::optional<BlockBounds<K>> block_bounds(
    std::size_t num_snps, std::size_t bs, const BlockTuple<K>& bt,
    const combinatorics::RankRange& clip) {
  static_assert(K >= 2 && K <= combinatorics::kMaxOrder);
  BlockBounds<K> b;
  b.bs = bs;
  for (unsigned j = 0; j < K; ++j) {
    b.base[j] = bt[j] * bs;
    if (b.base[j] >= num_snps) return std::nullopt;
    b.end[j] = std::min(b.base[j] + bs, num_snps);
  }
  if (clip.first != kFullRange.first || clip.last != kFullRange.last) {
    const combinatorics::RankRange span = combinatorics::block_tuple_span<K>(
        combinatorics::BlockGrid{num_snps, bs}, bt);
    if (span.empty() || span.last <= clip.first || span.first >= clip.last) {
      return std::nullopt;
    }
    b.filter = span.first < clip.first || span.last > clip.last;
  }
  return b;
}

/// Compile-time axis index handed to walk visitors.
template <unsigned J>
using Axis = std::integral_constant<unsigned, J>;

/// Walks axes J..N-1 (N <= K) of block tuple `b` in Algorithm 1 loop order:
/// for every index i of axis J that follows `prev` and still admits a
/// completion through axis K-1, calls `visit(Axis<J>{}, i, local)` and then
/// descends, where `local` = sum over axes j <= J of
/// (i_j - base_j) * bs^(J-j).  At N = K the deepest visit is the
/// combination's leaf and `local` indexes its scratch table.
template <unsigned N, unsigned J = 0, unsigned K, typename Visit>
void walk_axes(const BlockBounds<K>& b, std::size_t prev, std::size_t local,
               Visit& visit) {
  static_assert(J < N && N <= K);
  for (std::size_t i = b.first(J, prev); i < b.end[J]; ++i) {
    if constexpr (J + 1 < K) {
      // Completions only get scarcer as i grows: the subtree is dead, and
      // so are all later ones.
      if (!b.has_completion(J, i)) break;
    }
    const std::size_t l = local * b.bs + (i - b.base[J]);
    visit(Axis<J>{}, i, l);
    if constexpr (J + 1 < N) walk_axes<N, J + 1>(b, i, l, visit);
  }
}

/// The prefix loop of the ladder walk: for every length-(K-1) prefix of
/// block tuple `b` (axes 0..K-2 in Algorithm 1 order) that admits a final
/// SNP, calls `on_prefix(comb, z_first, z_end)` with comb[0..K-2] set and
/// the prefix's final-axis SNPs [z_first, z_end).
template <unsigned K, typename OnPrefix>
void for_each_prefix(const BlockBounds<K>& b, OnPrefix&& on_prefix) {
  static_assert(K >= 3, "the ladder needs a length-2 prefix");
  combinatorics::Combination<K> comb{};
  auto visit = [&](auto axis, std::size_t i, std::size_t) {
    constexpr unsigned j = decltype(axis)::value;
    comb[j] = static_cast<std::uint32_t>(i);
    if constexpr (j + 2 == K) on_prefix(comb, b.first(K - 1, i), b.end[K - 1]);
  };
  walk_axes<K - 1>(b, 0, 0, visit);
}

/// The final-axis SNPs of [z_first, z_end) whose combination with the
/// prefix in comb[0..K-2] lies in `clip`.  A prefix's rank rises with its
/// final SNP, so they form one run: a boundary block tuple computes only
/// that run and skips a prefix with none, instead of resolving the whole
/// block and filtering what it emits.
template <unsigned K>
std::pair<std::size_t, std::size_t> final_axis_in_clip(
    combinatorics::Combination<K> comb, std::size_t z_first,
    std::size_t z_end, const combinatorics::RankRange& clip) {
  const auto rank_at = [&](std::size_t z) {
    comb[K - 1] = static_cast<std::uint32_t>(z);
    return combinatorics::rank_combination<K>(comb);
  };
  while (z_first < z_end && rank_at(z_first) < clip.first) ++z_first;
  while (z_end > z_first && rank_at(z_end - 1) >= clip.last) --z_end;
  return {z_first, z_end};
}

/// Emits the sequential tables of combination `comb` held in `group` (one
/// table per class), folding the NOR padding out of the all-genotype-2
/// cell.
template <unsigned K, typename OnTable>
void emit_sequential(const dataset::PhenoSplitPlanes& planes,
                     const std::uint32_t* group,
                     const combinatorics::Combination<K>& comb,
                     OnTable& on_table) {
  scoring::BasicContingencyTable<K> t;
  for (int c = 0; c < 2; ++c) {
    auto& row = t.counts[static_cast<std::size_t>(c)];
    std::copy_n(group + static_cast<std::size_t>(c) * row.size(), row.size(),
                row.begin());
    // NOR padding shows up as phantom all-genotype-2 observations.
    row.back() -= static_cast<std::uint32_t>(planes.pad_bits(c));
  }
  on_table(comb, std::as_const(t));
}

/// Emits the batched tables of one combination, partition index ascending:
/// slot 0 of `group` holds the phenotype-independent totals, slot 1+p the
/// exact case table of partition p (label planes are zero-padded).  The
/// control table is totals − case; only it inherits the combined planes'
/// `pad` phantom all-genotype-2 observations.
template <unsigned K, typename OnTable>
void emit_batched(const combinatorics::Combination<K>& comb,
                  const std::uint32_t* group, std::size_t num_labels,
                  std::size_t pad, OnTable& on_table) {
  constexpr std::size_t kCells = scoring::num_cells(K);
  for (std::size_t p = 0; p < num_labels; ++p) {
    const std::uint32_t* case_ft = group + (1 + p) * kCells;
    scoring::BasicContingencyTable<K> t;
    for (std::size_t i = 0; i < kCells; ++i) {
      t.counts[1][i] = case_ft[i];
      t.counts[0][i] = group[i] - case_ft[i];
    }
    t.counts[0][kCells - 1] -= static_cast<std::uint32_t>(pad);
    on_table(comb, p, std::as_const(t));
  }
}

/// The sequential leaf of the ladder walk: a group holds one table per
/// class, filled by the order's final rung.
template <unsigned K>
struct SequentialLeaf {
  const dataset::PhenoSplitPlanes& planes;
  const EngineKernels& kernels;

  void on_chunk(const PrefixPlaneCache&, std::size_t, std::size_t) const {}

  void resolve(const PrefixPlaneCache& cache, int c, std::size_t z,
               std::size_t w0, std::size_t w1, std::uint32_t* group) const {
    kernels.final_rung<K>(cache, planes.plane(c, z, 0), planes.plane(c, z, 1),
                          w0, w1,
                          group + static_cast<std::size_t>(c) *
                                      scoring::num_cells(K));
  }

  template <typename OnTable>
  void emit(const combinatorics::Combination<K>& comb,
            const std::uint32_t* group, OnTable& on_table) const {
    emit_sequential<K>(planes, group, comb, on_table);
  }
};

/// The batched leaf of the ladder walk over the phenotype-agnostic
/// combined planes (`PhenoSplitPlanes::build_combined`, whose class 1 is
/// empty): per chunk the batch kernel counts |last rung ∩ L_p| once, and
/// each final-axis SNP then costs two broadcast-AND-popcount streams per
/// partition into its (1 + P)-slot group.
template <unsigned K>
struct BatchedLeaf {
  static constexpr std::size_t kPrefixPlanes = pow3(K - 1);

  const dataset::PhenoSplitPlanes& planes;
  const dataset::PhenotypeBatch& batch;
  const EngineKernels& kernels;
  /// kPrefixPlanes rows of batch.stride() lanes.
  std::uint32_t* label_pops;

  void on_chunk(const PrefixPlaneCache& cache, std::size_t w0,
                std::size_t w1) const {
    std::fill_n(label_pops, kPrefixPlanes * batch.stride(), 0u);
    kernels.batch.label_pops(cache.rung(K - 1), kPrefixPlanes, cache.stride(),
                             batch.word_labels(), batch.size(),
                             batch.stride(), w0, w1, label_pops);
  }

  void resolve(const PrefixPlaneCache& cache, int c, std::size_t z,
               std::size_t w0, std::size_t w1, std::uint32_t* group) const {
    kernels.batch.finalize(cache.rung(K - 1), kPrefixPlanes, cache.stride(),
                           cache.rung_pops(K - 1), label_pops,
                           planes.plane(c, z, 0), planes.plane(c, z, 1),
                           batch.word_labels(), batch.size(), batch.stride(),
                           w0, w1, group, scoring::num_cells(K));
  }

  template <typename OnTable>
  void emit(const combinatorics::Combination<K>& comb,
            const std::uint32_t* group, OnTable& on_table) const {
    emit_batched<K>(comb, group, batch.size(), planes.pad_bits(0), on_table);
  }
};

/// The prefix-outer ladder walk (K >= 3) behind scan_block_tuple_ladder
/// and scan_block_tuple_batched, which differ only in `leaf`.  For each
/// length-(K-1) prefix of block tuple `bt` it zeroes the groups of the
/// prefix's final-axis SNPs, streams every class in B_P-word chunks —
/// building the ladder once per chunk, calling `leaf.on_chunk`, then
/// `leaf.resolve` once per final-axis SNP — and emits each group through
/// `leaf.emit`.  A block tuple that straddles `clip` resolves, per prefix,
/// only the final-axis SNPs inside it.
template <unsigned K, typename Leaf, typename OnTable>
void ladder_walk(const dataset::PhenoSplitPlanes& planes,
                 const TilingParams& tiling, const EngineKernels& kernels,
                 TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                 const combinatorics::RankRange& clip, const Leaf& leaf,
                 OnTable& on_table) {
  static_assert(K >= 3, "the ladder needs a length-2 prefix");
  const auto bounds = block_bounds<K>(planes.num_snps(), tiling.bs, bt, clip);
  if (!bounds) return;
  const BlockBounds<K>& b = *bounds;
  // No chunk is wider than a class's planes: narrow panels keep a narrow
  // ladder.
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(K, std::min(tiling.bp_words,
                           std::max(planes.words(0), planes.words(1))));
  scratch.ensure_groups(1);

  for_each_prefix<K>(b, [&](combinatorics::Combination<K>& comb,
                            std::size_t z_first, std::size_t z_end) {
    if (b.filter) {
      std::tie(z_first, z_end) =
          final_axis_in_clip<K>(comb, z_first, z_end, clip);
      if (z_first == z_end) return;
    }
    scratch.clear_groups(z_end - z_first);
    for (int c = 0; c < 2; ++c) {
      const std::size_t words = planes.words(c);
      for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
        const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
        kernels.build_ladder<K>(cache, planes, c, comb, w0, w1);
        leaf.on_chunk(std::as_const(cache), w0, w1);
        for (std::size_t z = z_first; z < z_end; ++z) {
          leaf.resolve(std::as_const(cache), c, z, w0, w1,
                       scratch.group(z - z_first));
        }
      }
    }
    for (std::size_t z = z_first; z < z_end; ++z) {
      comb[K - 1] = static_cast<std::uint32_t>(z);
      leaf.emit(std::as_const(comb), scratch.group(z - z_first), on_table);
    }
  });
}

}  // namespace engine_detail

// ---------------------------------------------------------------------------
// Sequential walks
// ---------------------------------------------------------------------------

/// V3/V4: evaluates every order-K SNP combination inside block tuple `bt`
/// whose colex rank lies in `clip` through the order's direct leaf kernel
/// (see EngineKernels) and calls `on_table(const Combination<K>&, const
/// BasicContingencyTable<K>&)` for each.  `scratch` must be built for
/// `tiling.bs`.
///
/// Clipping is rank-aware in three tiers: a block tuple whose span misses
/// `clip` entirely returns before any kernel work; a block tuple fully
/// inside `clip` (the interior of a partition) runs with zero
/// per-combination overhead; only the partition's boundary blocks filter
/// each emission by rank.  Pass `kFullRange` to disable clipping.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const EngineKernels& kernels,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      const combinatorics::RankRange& clip,
                      OnTable&& on_table) {
  const auto bounds =
      engine_detail::block_bounds<K>(planes.num_snps(), tiling.bs, bt, clip);
  if (!bounds) return;
  const engine_detail::BlockBounds<K>& b = *bounds;
  scratch.ensure_groups(K);

  auto clear = [&](auto axis, std::size_t, std::size_t local) {
    if constexpr (decltype(axis)::value + 1 == K) scratch.clear_group(local);
  };
  engine_detail::walk_axes<K>(b, 0, 0, clear);

  // Sample-blocked accumulation: for each class, stream B_P words at a
  // time through all combinations of the block tuple.
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
      const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
      std::array<const Word*, K> g0{};
      std::array<const Word*, K> g1{};
      auto visit = [&](auto axis, std::size_t i, std::size_t local) {
        constexpr unsigned j = decltype(axis)::value;
        g0[j] = planes.plane(c, i, 0);
        g1[j] = planes.plane(c, i, 1);
        if constexpr (j + 1 == K) {
          kernels.direct<K>(g0, g1, w0, w1, scratch.table(local, c));
        }
      };
      engine_detail::walk_axes<K>(b, 0, 0, visit);
    }
  }

  combinatorics::Combination<K> comb{};
  auto emit = [&](auto axis, std::size_t i, std::size_t local) {
    constexpr unsigned j = decltype(axis)::value;
    comb[j] = static_cast<std::uint32_t>(i);
    if constexpr (j + 1 == K) {
      if (b.emits(comb, clip)) {
        engine_detail::emit_sequential<K>(planes, scratch.group(local),
                                          std::as_const(comb), on_table);
      }
    }
  };
  engine_detail::walk_axes<K>(b, 0, 0, emit);
}

/// V5: the same combinations and tables as scan_block_tuple, walked
/// prefix-outer through the prefix-plane ladder (engine_detail::ladder_walk
/// with the sequential leaf), so the scratch holds the B_S groups of one
/// prefix (not B_S^K) and B_S is free to grow for final-axis reuse without
/// growing memory.  The prefix streams leave the innermost loop entirely,
/// and no genotype-2 plane of any prefix SNP is ever materialized.  At
/// K = 2 there is no rung and this is scan_block_tuple.  Bit-identical to
/// the direct walk for every clip.
template <unsigned K, typename OnTable>
void scan_block_tuple_ladder(const dataset::PhenoSplitPlanes& planes,
                             const TilingParams& tiling,
                             const EngineKernels& kernels,
                             TupleBlockScratch<K>& scratch,
                             const BlockTuple<K>& bt,
                             const combinatorics::RankRange& clip,
                             OnTable&& on_table) {
  if constexpr (K == 2) {
    scan_block_tuple<K>(planes, tiling, kernels, scratch, bt, clip,
                        static_cast<OnTable&&>(on_table));
  } else {
    engine_detail::ladder_walk<K>(
        planes, tiling, kernels, scratch, bt, clip,
        engine_detail::SequentialLeaf<K>{planes, kernels}, on_table);
  }
}

// ---------------------------------------------------------------------------
// Batched multi-phenotype walks
// ---------------------------------------------------------------------------

/// Batched pair walk (K == 2): the nine x∩y planes of each pair are
/// materialized once per chunk; their chunk popcounts are the totals and
/// one label-popcount pass per chunk yields every partition's case cells
/// directly — there is no final axis, so no finalize kernel is involved.
/// `scratch` holds one group of 1 + P slots.  Calls `on_table(const
/// Combination<2>&, std::size_t partition, const PairContingencyTable&)`.
template <typename OnTable>
void scan_block_pair_batched(const dataset::PhenoSplitPlanes& planes,
                             const dataset::PhenotypeBatch& batch,
                             const TilingParams& tiling,
                             const EngineKernels& kernels,
                             TupleBlockScratch<2>& scratch,
                             const BlockTuple<2>& bt,
                             const combinatorics::RankRange& clip,
                             OnTable&& on_table) {
  const auto bounds =
      engine_detail::block_bounds<2>(planes.num_snps(), tiling.bs, bt, clip);
  if (!bounds) return;
  const engine_detail::BlockBounds<2>& b = *bounds;

  const std::size_t num_labels = batch.size();
  const std::size_t lstride = batch.stride();
  const std::size_t words = planes.words(0);
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(3, std::min(tiling.bp_words, words));
  scratch.ensure_groups(0);
  std::uint32_t* label_pops = scratch.label_pops(9 * lstride);

  combinatorics::Combination<2> comb{};
  auto visit = [&](auto axis, std::size_t i, std::size_t) {
    constexpr unsigned j = decltype(axis)::value;
    comb[j] = static_cast<std::uint32_t>(i);
    if constexpr (j == 1) {
      if (!b.emits(comb, clip)) return;
      scratch.clear_groups(1);
      std::uint32_t* table = scratch.group(0);
      for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
        const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
        kernels.build_rung2(cache, planes.plane(0, comb[0], 0),
                            planes.plane(0, comb[0], 1),
                            planes.plane(0, comb[1], 0),
                            planes.plane(0, comb[1], 1), w0, w1);
        std::fill_n(label_pops, 9 * lstride, 0u);
        kernels.batch.label_pops(cache.rung(2), 9, cache.stride(),
                                 batch.word_labels(), num_labels, lstride, w0,
                                 w1, label_pops);
        for (std::size_t t = 0; t < 9; ++t) {
          table[t] += cache.rung_pops(2)[t];
          for (std::size_t p = 0; p < num_labels; ++p) {
            table[(1 + p) * 9 + t] += label_pops[t * lstride + p];
          }
        }
      }
      engine_detail::emit_batched<2>(comb, table, num_labels,
                                     planes.pad_bits(0), on_table);
    }
  };
  engine_detail::walk_axes<2>(b, 0, 0, visit);
}

/// Batched scan at any order: evaluates every combination of block tuple
/// `bt` within `clip` against ALL partitions of `batch` in one pass, and
/// calls `on_table(const Combination<K>&, std::size_t partition, const
/// BasicContingencyTable<K>&)` for each (partition index ascending within
/// a combination).  `scratch` must be built with 1 + batch.size() slots.
///
/// `planes` must be the phenotype-agnostic combined layout
/// (`PhenoSplitPlanes::build_combined`).  At K >= 3 this is the V5 ladder
/// walk with the batched leaf: the ladder streams the combined class once
/// per prefix and chunk, and the plane streaming and ladder build are
/// amortized across all P partitions.  At K = 2 it is
/// scan_block_pair_batched.  Tables are exact integer counts, so every
/// partition's result is bit-identical to a dedicated sequential scan of
/// that partition.
template <unsigned K, typename OnTable>
void scan_block_tuple_batched(const dataset::PhenoSplitPlanes& planes,
                              const dataset::PhenotypeBatch& batch,
                              const TilingParams& tiling,
                              const EngineKernels& kernels,
                              TupleBlockScratch<K>& scratch,
                              const BlockTuple<K>& bt,
                              const combinatorics::RankRange& clip,
                              OnTable&& on_table) {
  if constexpr (K == 2) {
    scan_block_pair_batched(planes, batch, tiling, kernels, scratch, bt, clip,
                            static_cast<OnTable&&>(on_table));
  } else {
    using Leaf = engine_detail::BatchedLeaf<K>;
    engine_detail::ladder_walk<K>(
        planes, tiling, kernels, scratch, bt, clip,
        Leaf{planes, batch, kernels,
             scratch.label_pops(Leaf::kPrefixPlanes * batch.stride())},
        on_table);
  }
}

}  // namespace trigen::core

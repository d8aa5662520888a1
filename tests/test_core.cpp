#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "test_util.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/scoring/mutual_information.hpp"

namespace trigen::core {
namespace {

using combinatorics::BlockTriple;
using combinatorics::num_block_triples;
using combinatorics::rank_block_triple;
using combinatorics::Triplet;
using combinatorics::unrank_block_triple;
using scoring::ContingencyTable;
using scoring::reference_contingency;
using trigen::test::Shape;
using trigen::test::planted_dataset;
using trigen::test::random_dataset;
using trigen::test::small_shapes;

// --------------------------------------------------------------------------
// Kernel registry
// --------------------------------------------------------------------------

TEST(KernelRegistry, ScalarAlwaysPresent) {
  EXPECT_TRUE(kernel_available(KernelIsa::kScalar));
  EXPECT_NE(get_kernel(KernelIsa::kScalar), nullptr);
}

TEST(KernelRegistry, BestIsAvailable) {
  EXPECT_TRUE(kernel_available(best_kernel_isa()));
}

/// Every KernelIsa enumerator, whether or not it was compiled in — registry
/// metadata (vector width, name) must be answerable for all of them.
const std::vector<KernelIsa>& every_isa() {
  static const std::vector<KernelIsa> v = {
      KernelIsa::kScalar,        KernelIsa::kAvx2,
      KernelIsa::kAvx2HarleySeal, KernelIsa::kAvx512Extract,
      KernelIsa::kAvx512Vpopcnt};
  return v;
}

TEST(KernelRegistry, VectorWordsMatchIsa) {
  EXPECT_EQ(kernel_vector_words(KernelIsa::kScalar), 1u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2), 8u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx2HarleySeal), 8u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx512Extract), 16u);
  EXPECT_EQ(kernel_vector_words(KernelIsa::kAvx512Vpopcnt), 16u);
}

TEST(KernelRegistry, VectorWordsArePowersOfTwoForEveryIsa) {
  for (const KernelIsa isa : every_isa()) {
    const std::size_t w = kernel_vector_words(isa);
    EXPECT_GE(w, 1u) << kernel_isa_name(isa);
    EXPECT_EQ(w & (w - 1), 0u) << kernel_isa_name(isa);
  }
}

TEST(KernelRegistry, NamesNonEmpty) {
  for (const auto isa : every_isa()) {
    EXPECT_FALSE(kernel_isa_name(isa).empty());
    EXPECT_NE(kernel_isa_name(isa), "unknown");
  }
}

TEST(KernelRegistry, CompiledInIsasAreUniqueAndStartWithScalar) {
  const auto& all = all_kernel_isas();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), KernelIsa::kScalar);
  std::set<KernelIsa> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
}

TEST(KernelRegistry, GetKernelThrowsForUnavailableIsa) {
  // An ISA the host cannot execute (or that was not compiled in) must never
  // yield a kernel pointer: dispatch is the single authority on what runs.
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      EXPECT_NE(get_kernel(isa), nullptr) << kernel_isa_name(isa);
    } else {
      EXPECT_THROW(get_kernel(isa), std::runtime_error)
          << kernel_isa_name(isa);
    }
  }
}

TEST(KernelRegistry, CachedKernelsExistForEveryAvailableIsa) {
  // The V5 kernel set mirrors the triple-block registry: every ISA that
  // can hand out a direct kernel hands out build+cached+count, and an
  // unavailable ISA must throw rather than return a pointer.
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      const CachedKernelSet ks = get_cached_kernels(isa);
      EXPECT_NE(ks.build, nullptr) << kernel_isa_name(isa);
      EXPECT_NE(ks.cached, nullptr) << kernel_isa_name(isa);
      EXPECT_NE(ks.count, nullptr) << kernel_isa_name(isa);
    } else {
      EXPECT_THROW(get_cached_kernels(isa), std::runtime_error)
          << kernel_isa_name(isa);
    }
  }
}

TEST(KernelRegistry, AvailableImpliesCompiledIn) {
  const auto& all = all_kernel_isas();
  const std::set<KernelIsa> compiled(all.begin(), all.end());
  for (const KernelIsa isa : every_isa()) {
    if (kernel_available(isa)) {
      EXPECT_TRUE(compiled.count(isa) == 1) << kernel_isa_name(isa);
    }
  }
}

TEST(KernelRegistry, KernelIsaParsesEveryName) {
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    const auto parsed = core::parse_kernel_isa(core::kernel_isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(core::parse_kernel_isa("sse9").has_value());
  EXPECT_FALSE(core::parse_kernel_isa("").has_value());
}

// --------------------------------------------------------------------------
// Contingency kernels vs brute-force reference
// --------------------------------------------------------------------------

class KernelShapeTest : public ::testing::TestWithParam<Shape> {};

combinatorics::Combination<3> triplet(std::size_t x, std::size_t y,
                                      std::size_t z) {
  return {static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y),
          static_cast<std::uint32_t>(z)};
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelShapeTest,
                         ::testing::ValuesIn(small_shapes()));

TEST_P(KernelShapeTest, V1MatchesReferenceForAllTriplets) {
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::BitPlanesV1::build(d);
  const std::size_t m = d.num_snps();
  for (std::size_t x = 0; x < m; ++x) {
    for (std::size_t y = x + 1; y < m; ++y) {
      for (std::size_t z = y + 1; z < m; ++z) {
        ASSERT_EQ(contingency_v1_of<3>(planes, triplet(x, y, z)),
                  reference_contingency(d, x, y, z))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST_P(KernelShapeTest, SplitKernelMatchesReferenceForEveryIsa) {
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t m = d.num_snps();
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    for (std::size_t x = 0; x < m; ++x) {
      for (std::size_t y = x + 1; y < m; ++y) {
        for (std::size_t z = y + 1; z < m; ++z) {
          ASSERT_EQ(contingency_split_of<3>(planes, triplet(x, y, z), isa),
                    reference_contingency(d, x, y, z))
              << kernel_isa_name(isa) << " " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST_P(KernelShapeTest, CachedKernelMatchesReferenceForEveryIsa) {
  // Two-phase V5 evaluation at the kernel level: build the x∩y planes of
  // (x, y) over the full word range, then run the cached kernel for every
  // z — the table must match the brute-force reference bit for bit.
  const auto d = random_dataset(GetParam());
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const std::size_t m = d.num_snps();
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    const CachedKernelSet ks = get_cached_kernels(isa);
    PrefixPlaneCache cache;
    for (std::size_t x = 0; x < m; ++x) {
      for (std::size_t y = x + 1; y < m; ++y) {
        for (std::size_t z = y + 1; z < m; ++z) {
          ContingencyTable t;
          for (int c = 0; c < 2; ++c) {
            const std::size_t words = planes.words(c);
            cache.ensure(3, words);
            std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
            ks.build(planes.plane(c, x, 0), planes.plane(c, x, 1),
                     planes.plane(c, y, 0), planes.plane(c, y, 1), 0, words,
                     cache.rung(2), cache.stride(), cache.rung_pops(2));
            ks.cached(cache.rung(2), cache.stride(), cache.rung_pops(2),
                      planes.plane(c, z, 0), planes.plane(c, z, 1), 0, words,
                      t.counts[static_cast<std::size_t>(c)].data());
            t.counts[static_cast<std::size_t>(c)][26] -=
                static_cast<std::uint32_t>(planes.pad_bits(c));
          }
          ASSERT_EQ(t, reference_contingency(d, x, y, z))
              << kernel_isa_name(isa) << " " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(Kernels, CachedKernelWordSubrangesCompose) {
  // Accumulating chunk [0, mid) and [mid, words) through separate
  // build+cached calls must equal one full-range call (the blocked V5
  // engine streams exactly such chunks).
  const auto d = random_dataset({6, 200, 17});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const CachedKernelSet ks = get_cached_kernels(KernelIsa::kScalar);
  PrefixPlaneCache cache;
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    cache.ensure(3, words);
    std::uint32_t full[27] = {};
    std::uint32_t split_acc[27] = {};
    std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
    ks.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
             planes.plane(c, 1, 0), planes.plane(c, 1, 1), 0, words,
             cache.rung(2), cache.stride(), cache.rung_pops(2));
    ks.cached(cache.rung(2), cache.stride(), cache.rung_pops(2),
              planes.plane(c, 2, 0), planes.plane(c, 2, 1), 0, words, full);
    const std::size_t mid = words / 2;
    for (const auto range :
         {std::pair<std::size_t, std::size_t>{0, mid},
          std::pair<std::size_t, std::size_t>{mid, words}}) {
      std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
      ks.build(planes.plane(c, 0, 0), planes.plane(c, 0, 1),
               planes.plane(c, 1, 0), planes.plane(c, 1, 1), range.first,
               range.second, cache.rung(2), cache.stride(),
               cache.rung_pops(2));
      ks.cached(cache.rung(2), cache.stride(), cache.rung_pops(2),
                planes.plane(c, 2, 0), planes.plane(c, 2, 1), range.first,
                range.second, split_acc);
    }
    for (int i = 0; i < 27; ++i) ASSERT_EQ(full[i], split_acc[i]) << i;
  }
}

TEST(Kernels, SplitKernelWordSubrangesCompose) {
  // Accumulating [0, w1) and [w1, words) must equal one full-range call
  // (before padding correction, which contingency_split applies once).
  const auto d = random_dataset({6, 200, 17});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TripleBlockKernel kernel = get_kernel(KernelIsa::kScalar);
  for (int c = 0; c < 2; ++c) {
    const std::size_t words = planes.words(c);
    std::uint32_t full[27] = {};
    std::uint32_t split_acc[27] = {};
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           0, words, full);
    const std::size_t mid = words / 2;
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           0, mid, split_acc);
    kernel(planes.plane(c, 0, 0), planes.plane(c, 0, 1), planes.plane(c, 1, 0),
           planes.plane(c, 1, 1), planes.plane(c, 2, 0), planes.plane(c, 2, 1),
           mid, words, split_acc);
    for (int i = 0; i < 27; ++i) ASSERT_EQ(full[i], split_acc[i]) << i;
  }
}

TEST(Kernels, EveryFamilyComposesOverWordSubrangesOnEveryIsa) {
  // Every kernel family, on every available ISA, accumulated over the
  // chunks [0, 21) and [21, words) must equal one full-range call (the
  // blocked engines stream exactly such chunks) and the scalar strategy.
  // 21 is no multiple of 8 or 16, so both chunks end in a partial vector.
  const auto d = random_dataset({6, 1500, 17});
  const auto planes = dataset::PhenoSplitPlanes::build_combined(d);
  const std::size_t words = planes.words(0);
  constexpr std::size_t kCut = 21;
  ASSERT_GT(words, kCut + 16);
  const auto g0 = [&](std::size_t snp) { return planes.plane(0, snp, 0); };
  const auto g1 = [&](std::size_t snp) { return planes.plane(0, snp, 1); };

  // 19 partitions: a partial label group on both vector widths.
  std::mt19937 rng(5);
  std::vector<std::vector<dataset::Phenotype>> parts(
      19, std::vector<dataset::Phenotype>(d.num_samples()));
  for (auto& part : parts) {
    for (auto& l : part) l = static_cast<dataset::Phenotype>(rng() & 1);
  }
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  const std::size_t label_cells = 9 * batch.stride();

  using Out = std::vector<std::uint32_t>;
  using Run = std::function<void(const EngineKernels&, std::size_t,
                                 std::size_t, Out&)>;
  PrefixPlaneCache cache;
  cache.ensure(4, words);
  // The chunk's rung-2 (SNPs 0, 1) and rung-3 (+ SNP 2) planes and pops.
  const auto rung2 = [&](const EngineKernels& k, std::size_t w0,
                         std::size_t w1) {
    k.build_rung2(cache, g0(0), g1(0), g0(1), g1(1), w0, w1);
  };
  const auto rung3 = [&](const EngineKernels& k, std::size_t w0,
                         std::size_t w1) {
    rung2(k, w0, w1);
    k.extend_rung(cache, 2, g0(2), g1(2), w0, w1, true);
  };
  // Rung j's chunk planes at their absolute words, then its pops.
  const auto append_rung = [&](unsigned j, std::size_t count, std::size_t w0,
                               std::size_t w1, Out& out) {
    out.resize(count * (words + 1));
    for (std::size_t t = 0; t < count; ++t) {
      for (std::size_t w = w0; w < w1; ++w) {
        out[t * words + w] = cache.rung(j)[t * cache.stride() + (w - w0)];
      }
      out[count * words + t] += cache.rung_pops(j)[t];
    }
  };
  const auto label_pops = [&](const EngineKernels& k, std::size_t w0,
                              std::size_t w1) {
    Out pops(label_cells, 0);
    k.batch.label_pops(cache.rung(2), 9, cache.stride(), batch.word_labels(),
                       batch.size(), batch.stride(), w0, w1, pops.data());
    return pops;
  };

  const std::vector<std::pair<std::string, Run>> families = {
      {"direct k=2",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(9);
         k.direct<2>({g0(0), g0(1)}, {g1(0), g1(1)}, w0, w1, out.data());
       }},
      {"direct k=3",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(27);
         k.direct<3>({g0(0), g0(1), g0(2)}, {g1(0), g1(1), g1(2)}, w0, w1,
                     out.data());
       }},
      {"direct k=4",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(81);
         k.direct<4>({g0(0), g0(1), g0(2), g0(3)},
                     {g1(0), g1(1), g1(2), g1(3)}, w0, w1, out.data());
       }},
      {"pair-plane build",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         rung2(k, w0, w1);
         append_rung(2, 9, w0, w1, out);
       }},
      {"ladder extend",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         rung3(k, w0, w1);
         append_rung(3, 27, w0, w1, out);
       }},
      {"build + final, count 9",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(27);
         rung2(k, w0, w1);
         k.final_rung<3>(cache, g0(2), g1(2), w0, w1, out.data());
       }},
      {"build + extend + final, count 27",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(81);
         rung3(k, w0, w1);
         k.final_rung<4>(cache, g0(3), g1(3), w0, w1, out.data());
       }},
      {"batch label pops",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize(label_cells);
         rung2(k, w0, w1);
         const Out pops = label_pops(k, w0, w1);
         for (std::size_t i = 0; i < label_cells; ++i) out[i] += pops[i];
       }},
      {"batch finalize",
       [&](const EngineKernels& k, std::size_t w0, std::size_t w1, Out& out) {
         out.resize((1 + batch.size()) * 27);
         rung2(k, w0, w1);
         const Out pops = label_pops(k, w0, w1);
         k.batch.finalize(cache.rung(2), 9, cache.stride(), cache.rung_pops(2),
                          pops.data(), g0(2), g1(2), batch.word_labels(),
                          batch.size(), batch.stride(), w0, w1, out.data(),
                          27);
       }},
  };

  for (const auto& [name, run] : families) {
    SCOPED_TRACE(name);
    Out scalar;
    run(EngineKernels::of(KernelIsa::kScalar), 0, words, scalar);
    for (const KernelIsa isa : all_kernel_isas()) {
      if (!kernel_available(isa)) continue;
      SCOPED_TRACE(kernel_isa_name(isa));
      const EngineKernels k = EngineKernels::of(isa);
      Out full;
      run(k, 0, words, full);
      Out split;
      run(k, 0, kCut, split);
      run(k, kCut, words, split);
      EXPECT_EQ(full, scalar);
      EXPECT_EQ(split, scalar);
    }
  }
}

// --------------------------------------------------------------------------
// Block-triple rank/unrank
// --------------------------------------------------------------------------

TEST(BlockTriples, CountMatchesMultisetFormula) {
  EXPECT_EQ(num_block_triples(1), 1u);   // (0,0,0)
  EXPECT_EQ(num_block_triples(2), 4u);   // C(4,3)
  EXPECT_EQ(num_block_triples(3), 10u);  // C(5,3)
  EXPECT_EQ(num_block_triples(10), 220u);
}

TEST(BlockTriples, RoundTripExhaustive) {
  std::uint64_t rank = 0;
  for (std::uint32_t c = 0; c < 20; ++c) {
    for (std::uint32_t b = 0; b <= c; ++b) {
      for (std::uint32_t a = 0; a <= b; ++a) {
        const BlockTriple t{a, b, c};
        ASSERT_EQ(rank_block_triple(t), rank);
        ASSERT_EQ(unrank_block_triple(rank), t);
        ++rank;
      }
    }
  }
  EXPECT_EQ(rank, num_block_triples(20));
}

TEST(BlockTriples, LargeRanksRoundTrip) {
  const std::uint64_t total = num_block_triples(5000);
  for (std::uint64_t i = 1; i <= 500; ++i) {
    const std::uint64_t rank = (total / 501) * i;
    const BlockTriple t = unrank_block_triple(rank);
    ASSERT_LE(t.b0, t.b1);
    ASSERT_LE(t.b1, t.b2);
    ASSERT_EQ(rank_block_triple(t), rank);
  }
}

// --------------------------------------------------------------------------
// Blocked engine: every walk, table-driven over order x walk x B_S
// --------------------------------------------------------------------------

enum class Walk { kDirect, kLadder };

struct EngineCase {
  unsigned order;
  Walk walk;
  std::size_t bs;
};

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> v;
  for (const unsigned order : {2u, 3u, 4u}) {
    for (const Walk walk : {Walk::kDirect, Walk::kLadder}) {
      // The ladder has no rung below order 3 (it is the direct walk there).
      if (walk == Walk::kLadder && order < 3) continue;
      for (const std::size_t bs : {1u, 2u, 3u, 5u, 7u}) {
        v.push_back({order, walk, bs});
      }
    }
  }
  return v;
}

std::string engine_case_name(const ::testing::TestParamInfo<EngineCase>& i) {
  return "k" + std::to_string(i.param.order) +
         (i.param.walk == Walk::kDirect ? "_direct" : "_ladder") + "_bs" +
         std::to_string(i.param.bs);
}

void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << "order " << c.order
      << (c.walk == Walk::kDirect ? " direct" : " ladder") << " bs " << c.bs;
}

/// Calls `f.template operator()<K>()` with K = `order`.
template <typename F>
void with_order(unsigned order, F&& f) {
  switch (order) {
    case 2: return f.template operator()<2>();
    case 3: return f.template operator()<3>();
    case 4: return f.template operator()<4>();
    default: FAIL() << "order " << order;
  }
}

/// Scans block tuple `bt` with `walk` and the scalar kernels, checking
/// every emitted table against the per-sample reference; returns the colex
/// ranks emitted.
template <unsigned K>
std::vector<std::uint64_t> scan_checked(const dataset::GenotypeMatrix& d,
                                        const dataset::PhenoSplitPlanes& planes,
                                        Walk walk, const TilingParams& tiling,
                                        TupleBlockScratch<K>& scratch,
                                        const BlockTuple<K>& bt,
                                        const combinatorics::RankRange& clip) {
  const EngineKernels kernels = EngineKernels::of(KernelIsa::kScalar);
  std::vector<std::uint64_t> ranks;
  const auto on_table = [&](const combinatorics::Combination<K>& c,
                            const scoring::BasicContingencyTable<K>& t) {
    ranks.push_back(combinatorics::rank_combination<K>(c));
    EXPECT_EQ(t, scoring::reference_contingency_k<K>(d, c))
        << "rank " << ranks.back();
  };
  if (walk == Walk::kLadder) {
    scan_block_tuple_ladder<K>(planes, tiling, kernels, scratch, bt, clip,
                               on_table);
  } else {
    scan_block_tuple<K>(planes, tiling, kernels, scratch, bt, clip, on_table);
  }
  return ranks;
}

/// scan_checked over every block tuple of `d`'s grid of tiling.bs blocks.
template <unsigned K>
std::vector<std::uint64_t> scan_grid_checked(
    const dataset::GenotypeMatrix& d, Walk walk, const TilingParams& tiling,
    const combinatorics::RankRange& clip) {
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  TupleBlockScratch<K> scratch(tiling.bs);
  const std::uint64_t nb = (d.num_snps() + tiling.bs - 1) / tiling.bs;
  std::vector<std::uint64_t> ranks;
  for (std::uint64_t r = 0; r < num_block_tuples<K>(nb); ++r) {
    const auto got = scan_checked<K>(d, planes, walk, tiling, scratch,
                                     unrank_block_tuple<K>(r), clip);
    ranks.insert(ranks.end(), got.begin(), got.end());
  }
  return ranks;
}

/// The emitted ranks are exactly those of `expected`, each emitted once.
void expect_each_rank_once(std::vector<std::uint64_t> ranks,
                           const combinatorics::RankRange& expected) {
  std::sort(ranks.begin(), ranks.end());
  ASSERT_EQ(ranks.size(), expected.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ASSERT_EQ(ranks[i], expected.first + i) << "emitted twice or off-range";
  }
}

class BlockedEngineTest : public ::testing::TestWithParam<EngineCase> {};

INSTANTIATE_TEST_SUITE_P(OrdersWalksTiles, BlockedEngineTest,
                         ::testing::ValuesIn(engine_cases()),
                         engine_case_name);

TEST_P(BlockedEngineTest, CoversEveryCombinationExactlyOnceWithCorrectTables) {
  const EngineCase& ec = GetParam();
  for (const Shape& shape : small_shapes()) {
    SCOPED_TRACE(std::get<0>(shape));
    const auto d = random_dataset(shape);
    with_order(ec.order, [&]<unsigned K>() {
      expect_each_rank_once(
          scan_grid_checked<K>(d, ec.walk, {ec.bs, 32}, kFullRange),
          {0, combinatorics::n_choose_k(d.num_snps(), K)});
    });
  }
}

TEST_P(BlockedEngineTest, ClipEmitsExactlyTheCombinationsInRange) {
  const EngineCase& ec = GetParam();
  const auto d = random_dataset({10, 100, 13});
  with_order(ec.order, [&]<unsigned K>() {
    const std::uint64_t total = combinatorics::n_choose_k(10, K);
    for (const auto clip :
         {combinatorics::RankRange{0, total}, combinatorics::RankRange{17, 18},
          combinatorics::RankRange{0, total / 2},
          combinatorics::RankRange{total / 2, total},
          combinatorics::RankRange{3, total - 3}}) {
      SCOPED_TRACE(clip.first);
      expect_each_rank_once(
          scan_grid_checked<K>(d, ec.walk, {ec.bs, 16}, clip), clip);
    }
  });
}

TEST_P(BlockedEngineTest, BpSmallerThanWordsStillCorrect) {
  const EngineCase& ec = GetParam();
  const auto d = random_dataset({9, 600, 23});
  for (const std::size_t bp : {1u, 3u, 16u, 1000u}) {
    SCOPED_TRACE(bp);
    with_order(ec.order, [&]<unsigned K>() {
      expect_each_rank_once(
          scan_grid_checked<K>(d, ec.walk, {ec.bs, bp}, kFullRange),
          {0, combinatorics::n_choose_k(9, K)});
    });
  }
}

TEST_P(BlockedEngineTest, SingleBlockCoversWholeDataset) {
  const EngineCase& ec = GetParam();
  const auto d = random_dataset({7, 90, 69});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{8, 8};  // bs > M: one block
  with_order(ec.order, [&]<unsigned K>() {
    TupleBlockScratch<K> scratch(tiling.bs);
    expect_each_rank_once(scan_checked<K>(d, planes, ec.walk, tiling, scratch,
                                          BlockTuple<K>{}, kFullRange),
                          {0, combinatorics::n_choose_k(7, K)});
  });
}

TEST_P(BlockedEngineTest, OutOfRangeBlockTupleIsEmpty) {
  const EngineCase& ec = GetParam();
  const auto d = random_dataset({6, 64, 71});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const TilingParams tiling{ec.bs, 8};
  with_order(ec.order, [&]<unsigned K>() {
    TupleBlockScratch<K> scratch(tiling.bs);
    BlockTuple<K> far;
    far.fill(9);
    EXPECT_TRUE(scan_checked<K>(d, planes, ec.walk, tiling, scratch, far,
                                kFullRange)
                    .empty());
  });
}

TEST(BlockedEngine, LadderScratchHoldsOnePrefixOfTables) {
  // The prefix-outer ladder walk keeps only the B_S table groups of one
  // prefix live — 2 tables each for the sequential leaf, 1 + P for the
  // batched one — and the direct walk all B_S^K of a block tuple.  Neither
  // leaf's ladder is wider than the widest class of its planes.
  const auto d = random_dataset({13, 70, 5});
  const auto planes = dataset::PhenoSplitPlanes::build(d);
  const auto combined = dataset::PhenoSplitPlanes::build_combined(d);
  std::vector<std::vector<dataset::Phenotype>> parts(
      3, std::vector<dataset::Phenotype>(d.num_samples()));
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    for (std::size_t p = 0; p < parts.size(); ++p) {
      parts[p][j] = static_cast<dataset::Phenotype>((j + p) % 2);
    }
  }
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  const EngineKernels kernels = EngineKernels::of(KernelIsa::kScalar);
  const auto rounded = [](std::size_t words) {
    return (words + dataset::kWordsPerVector - 1) / dataset::kWordsPerVector *
           dataset::kWordsPerVector;
  };
  for (const unsigned order : {3u, 4u}) {
    with_order(order, [&]<unsigned K>() {
      for (const std::size_t bs : {std::size_t{2}, std::size_t{5}}) {
        SCOPED_TRACE(::testing::Message() << "order " << K << " bs " << bs);
        const TilingParams tiling{bs, 256};  // wider than either layout
        TupleBlockScratch<K> ladder(bs);
        TupleBlockScratch<K> direct(bs);
        TupleBlockScratch<K> batched(bs, 1 + batch.size());
        const std::uint64_t nb = (d.num_snps() + bs - 1) / bs;
        for (std::uint64_t r = 0; r < num_block_tuples<K>(nb); ++r) {
          scan_checked<K>(d, planes, Walk::kLadder, tiling, ladder,
                          unrank_block_tuple<K>(r), kFullRange);
          scan_checked<K>(d, planes, Walk::kDirect, tiling, direct,
                          unrank_block_tuple<K>(r), kFullRange);
          scan_block_tuple_batched<K>(combined, batch, tiling, kernels,
                                      batched, unrank_block_tuple<K>(r),
                                      kFullRange, [](auto&&...) {});
        }
        std::size_t all = 1;
        for (unsigned j = 0; j < K; ++j) all *= bs;
        EXPECT_EQ(ladder.groups(), bs);
        EXPECT_EQ(ladder.slots(), 2u);
        EXPECT_EQ(direct.groups(), all);
        EXPECT_EQ(batched.groups(), bs);
        EXPECT_EQ(batched.slots(), 1 + batch.size());
        EXPECT_LE(ladder.prefix_cache().stride(),
                  rounded(std::max(planes.words(0), planes.words(1))));
        EXPECT_LE(batched.prefix_cache().stride(), rounded(combined.words(0)));
      }
    });
  }
}

// --------------------------------------------------------------------------
// Alignment guarantees
// --------------------------------------------------------------------------

TEST(Alignment, KernelVisiblePlanesAre64ByteAligned) {
  // Every plane the kernels stream must start on a 64-byte boundary so
  // aligned vector loads stay legal after any future layout refactor.
  const auto d = random_dataset({9, 123, 77});
  const auto split = dataset::PhenoSplitPlanes::build(d);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(split.words(c) % dataset::kWordsPerVector, 0u) << c;
    for (std::size_t snp = 0; snp < d.num_snps(); ++snp) {
      for (int g = 0; g < 2; ++g) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(split.plane(c, snp, g)) %
                      kVectorAlign,
                  0u)
            << c << "," << snp << "," << g;
      }
    }
  }
  const auto v1 = dataset::BitPlanesV1::build(d);
  EXPECT_EQ(v1.words() % dataset::kWordsPerVector, 0u);
  for (std::size_t snp = 0; snp < d.num_snps(); ++snp) {
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v1.plane(snp, g)) %
                    kVectorAlign,
                0u)
          << snp << "," << g;
    }
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v1.phenotype_plane()) %
                kVectorAlign,
            0u);
}

TEST(Alignment, LadderRung2PlanesAre64ByteAligned) {
  PrefixPlaneCache cache;
  for (const std::size_t words : {1u, 17u, 400u, 1000u}) {
    cache.ensure(3, words);
    ASSERT_GE(cache.stride(), words);
    EXPECT_EQ(cache.stride() % dataset::kWordsPerVector, 0u) << words;
    for (int p = 0; p < 9; ++p) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cache.rung(2) +
                                                 p * cache.stride()) %
                    kVectorAlign,
                0u)
          << words << " plane " << p;
    }
  }
  // ensure() never shrinks: capacity stays usable by earlier chunks.
  const std::size_t grown = cache.stride();
  cache.ensure(3, 8);
  EXPECT_EQ(cache.stride(), grown);
}

// --------------------------------------------------------------------------
// Tiling autotuner
// --------------------------------------------------------------------------

TEST(Tiling, PaperIceLakeConfig) {
  // Ice Lake SP: 48 kB 12-way L1D, 7 ways tables + 4 ways block, AVX-512
  // (16 words/vector) => the paper's <5, 400>.
  L1Config l1{48 * 1024, 12, 7, 4};
  const TilingParams p = autotune_tiling(l1, 16);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 400u);
}

TEST(Tiling, PaperAvxConfig) {
  // 32 kB 8-way L1D, 7 ways tables + 1 way block, AVX (8 words/vector)
  // => the paper's <5, 96>.
  L1Config l1{32 * 1024, 8, 7, 1};
  const TilingParams p = autotune_tiling(l1, 8);
  EXPECT_EQ(p.bs, 5u);
  EXPECT_EQ(p.bp_words, 96u);
}

TEST(Tiling, FrequencyTablesFitBudget) {
  for (unsigned ways_ft : {4u, 7u}) {
    L1Config l1{32 * 1024, 8, ways_ft, 1};
    const TilingParams p = autotune_tiling(l1, 8);
    EXPECT_LE(tuple_tables_bytes(p.bs, 3), l1.size_bytes / l1.ways * ways_ft);
    EXPECT_GT(tuple_tables_bytes(p.bs + 1, 3),
              l1.size_bytes / l1.ways * ways_ft);
  }
}

TEST(Tiling, BpMultipleOfVectorWords) {
  for (std::size_t vec : {1u, 8u, 16u}) {
    L1Config l1{48 * 1024, 12, 7, 4};
    const TilingParams p = autotune_tiling(l1, vec);
    EXPECT_EQ(p.bp_words % vec, 0u) << vec;
    EXPECT_GE(p.bp_words, vec);
  }
}

/// The L1 geometries the tiling tests sweep: Ice Lake SP, an 8-way AVX
/// part, a wide 16-way cache and a small 6-way one.
const L1Config kTestL1s[] = {
    L1Config{48 * 1024, 12, 7, 4}, L1Config{32 * 1024, 8, 7, 1},
    L1Config{64 * 1024, 16, 7, 8}, L1Config{24 * 1024, 6, 4, 2}};

TEST(Tiling, LadderChunkFitsTheBlockWays) {
  // V5 streams one prefix at a time: the ladder (rungs 2..order-1) plus the
  // two planes of the final-axis SNP being resolved must fit the block
  // ways for every chunk, unless B_P sits on its floor.
  for (const L1Config& l1 : kTestL1s) {
    const std::size_t block_budget =
        l1.size_bytes / l1.ways * l1.ways_for_block;
    for (const std::size_t vec : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
      for (unsigned order = 3; order <= 6; ++order) {
        SCOPED_TRACE(::testing::Message() << "L1 " << l1.size_bytes << " vec "
                                          << vec << " order " << order);
        const TilingParams p = ladder_tiling(l1, vec, order);
        EXPECT_TRUE(p.valid());
        const std::size_t chunk =
            prefix_cache_bytes(p.bp_words, order) + 2 * 4 * p.bp_words;
        EXPECT_TRUE(chunk <= block_budget || p.bp_words == kLadderMinBpWords)
            << chunk << " > " << block_budget;
        EXPECT_GE(p.bp_words, kLadderMinBpWords);
        EXPECT_EQ(p.bp_words % vec, 0u);
        // B_P lands on the PrefixPlaneCache stride granule, so the budgeted
        // footprint equals the allocated one.
        EXPECT_EQ(p.bp_words % dataset::kWordsPerVector, 0u);
        EXPECT_EQ(p.bs, kLadderMaxBs[order]);
      }
    }
  }
}

/// Block tuples partition_block_tuples maps `range` of an order-`order`
/// scan of `snps` SNPs onto, in blocks of `bs`.
std::uint64_t block_tuples_covering(unsigned order, std::size_t snps,
                                    std::size_t bs,
                                    combinatorics::RankRange range) {
  const auto run = [&]<unsigned K>() {
    return combinatorics::partition_block_tuples<K>(
               combinatorics::BlockGrid{snps, bs}, range)
        .block_ranks.size();
  };
  switch (order) {
    case 3: return run.template operator()<3>();
    case 4: return run.template operator()<4>();
    case 5: return run.template operator()<5>();
    case 6: return run.template operator()<6>();
    default: ADD_FAILURE() << "order " << order; return 0;
  }
}

TEST(Tiling, LadderBsKeepsBlockTuplesForEveryThread) {
  // B_S is capped so the block tuples the scanned range maps onto keep
  // kMinBlockTuplesPerThread per thread, and only as far as needed: one
  // more SNP per block breaks the cap (or exceeds the model's B_S).  A
  // sub-range is capped by its own block tuples, not the panel's.
  const L1Config l1{48 * 1024, 12, 7, 4};
  for (unsigned order = 3; order <= 6; ++order) {
    for (const std::size_t snps : {std::size_t{6}, std::size_t{12},
                                   std::size_t{40}, std::size_t{400}}) {
      const std::uint64_t total = combinatorics::n_choose_k(snps, order);
      for (const combinatorics::RankRange range :
           {combinatorics::RankRange{},
            combinatorics::RankRange{0, total / 7 + 1},
            combinatorics::RankRange{total / 2, total / 2 + 1},
            combinatorics::RankRange{total - total / 64 - 1, total}}) {
        for (const unsigned threads : {1u, 3u, 4u, 64u}) {
          SCOPED_TRACE(::testing::Message()
                       << "order " << order << " snps " << snps << " range ["
                       << range.first << ", " << range.last << ") threads "
                       << threads);
          const auto tuples = [&](std::size_t bs) {
            return block_tuples_covering(
                order, snps, bs,
                range.empty() ? combinatorics::RankRange{0, total} : range);
          };
          const std::uint64_t want = kMinBlockTuplesPerThread * threads;
          const TilingParams p =
              scan_tiling(l1, order, CpuVersion::kV5PairCache,
                          KernelIsa::kScalar, snps, range, threads);
          EXPECT_LE(p.bs, kLadderMaxBs[order]);
          EXPECT_GE(p.bs, 1u);
          EXPECT_TRUE(p.bs == 1 || tuples(p.bs) >= want) << p.bs;
          if (p.bs < kLadderMaxBs[order]) {
            EXPECT_LT(tuples(p.bs + 1), want) << p.bs;
          }
        }
      }
    }
  }
}

TEST(Tiling, BlockSplitKeepsLayersForEveryShard) {
  // A block-aligned plan cuts at layers of the unthrottled V4/V5 B_S,
  // lowered only as far as kMinLayersPerShard layers per shard need.
  for (const L1Config& l1 : kTestL1s) {
    for (unsigned order = 2; order <= 6; ++order) {
      const std::size_t model = order >= 3 ? ladder_tiling(l1, 1, order).bs
                                           : autotune_tiling(l1, 1, order).bs;
      for (const std::size_t snps : {std::size_t{7}, std::size_t{60},
                                     std::size_t{100000}}) {
        for (const unsigned shards : {1u, 4u, 64u}) {
          SCOPED_TRACE(::testing::Message()
                       << "L1 " << l1.size_bytes << " order " << order
                       << " snps " << snps << " shards " << shards);
          const std::size_t bs = block_split_bs(l1, order, snps, shards);
          const auto layers = [&](std::size_t b) { return (snps + b - 1) / b; };
          EXPECT_GE(bs, 1u);
          EXPECT_LE(bs, model);
          EXPECT_TRUE(bs == 1 || layers(bs) >= kMinLayersPerShard * shards);
          if (snps == 100000) {
            EXPECT_EQ(bs, model);
          }
        }
      }
    }
  }
}

TEST(Tiling, ScanTilingPicksEachRungsModel) {
  // A panel wide enough that the per-thread cap never binds.
  const auto scan = [](const L1Config& l1, unsigned order, CpuVersion v,
                       KernelIsa isa) {
    return scan_tiling(l1, order, v, isa, 100000, {}, 4);
  };
  for (const L1Config& l1 : kTestL1s) {
    for (unsigned order = 2; order <= 6; ++order) {
      SCOPED_TRACE(::testing::Message() << "L1 " << l1.size_bytes
                                        << " order " << order);
      for (const KernelIsa isa : all_kernel_isas()) {
        const std::size_t vec = kernel_vector_words(isa);
        const std::size_t scalar = kernel_vector_words(KernelIsa::kScalar);
        const auto same = [](const TilingParams& a, const TilingParams& b) {
          return a.bs == b.bs && a.bp_words == b.bp_words;
        };
        // V1/V2 never walk blocks and V3 runs the scalar kernels.
        for (const CpuVersion v : {CpuVersion::kV1Naive, CpuVersion::kV2Split,
                                   CpuVersion::kV3Blocked}) {
          EXPECT_TRUE(same(scan(l1, order, v, isa),
                           autotune_tiling(l1, scalar, order)));
        }
        EXPECT_TRUE(same(scan(l1, order, CpuVersion::kV4Vector, isa),
                         autotune_tiling(l1, vec, order)));
        // At order 2 the ladder walk is the direct walk, and so is its
        // tile.
        EXPECT_TRUE(same(
            scan(l1, order, CpuVersion::kV5PairCache, isa),
            order == 2 ? autotune_tiling(l1, vec, order)
                       : ladder_tiling(l1, vec, order)));
      }
    }
  }
}

TEST(Tiling, DetectedHostConfigIsUsable) {
  const L1Config l1 = detect_l1_config();
  EXPECT_GT(l1.size_bytes, 0u);
  EXPECT_GT(l1.ways, 0u);
  const TilingParams p = autotune_tiling(l1, 16);
  EXPECT_TRUE(p.valid());
  EXPECT_GE(p.bs, 1u);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

TEST(Tiling, L1ConfigReadsRequestedCpuFromFakeTree) {
  const std::string root = ::testing::TempDir() + "trigen_core_sysfs_cpu";
  ::mkdir(root.c_str(), 0777);
  // cpu0: a 32K/8-way L1D at index0.  cpu1: instruction cache at index0
  // (must be skipped) and a 48K/12-way Unified L1 at index1.
  for (const char* d :
       {"/cpu0", "/cpu0/cache", "/cpu0/cache/index0", "/cpu1", "/cpu1/cache",
        "/cpu1/cache/index0", "/cpu1/cache/index1"}) {
    ::mkdir((root + d).c_str(), 0777);
  }
  write_file(root + "/cpu0/cache/index0/level", "1");
  write_file(root + "/cpu0/cache/index0/type", "Data");
  write_file(root + "/cpu0/cache/index0/size", "32K");
  write_file(root + "/cpu0/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index0/level", "1");
  write_file(root + "/cpu1/cache/index0/type", "Instruction");
  write_file(root + "/cpu1/cache/index0/size", "32K");
  write_file(root + "/cpu1/cache/index0/ways_of_associativity", "8");
  write_file(root + "/cpu1/cache/index1/level", "1");
  write_file(root + "/cpu1/cache/index1/type", "Unified");
  write_file(root + "/cpu1/cache/index1/size", "48K");
  write_file(root + "/cpu1/cache/index1/ways_of_associativity", "12");

  const core::L1Config c0 = core::detect_l1_config(root, 0);
  EXPECT_EQ(c0.size_bytes, 32u * 1024);
  EXPECT_EQ(c0.ways, 8u);
  const core::L1Config c1 = core::detect_l1_config(root, 1);
  EXPECT_EQ(c1.size_bytes, 48u * 1024);
  EXPECT_EQ(c1.ways, 12u);
  // A CPU with no entries falls back to cpu0's geometry.
  const core::L1Config c9 = core::detect_l1_config(root, 9);
  EXPECT_EQ(c9.size_bytes, 32u * 1024);
  EXPECT_EQ(c9.ways, 8u);
}

// --------------------------------------------------------------------------
// TopK
// --------------------------------------------------------------------------

TEST(TopK, KeepsBestK) {
  TopK top(3);
  for (int i = 10; i >= 1; --i) {
    top.push({Triplet{0, 1, static_cast<std::uint32_t>(i + 1)},
              static_cast<double>(i)});
  }
  const auto sorted = top.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].score, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].score, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].score, 3.0);
}

TEST(TopK, TieBreaksOnRank) {
  TopK top(2);
  top.push({Triplet{0, 1, 3}, 5.0});
  top.push({Triplet{0, 1, 2}, 5.0});
  top.push({Triplet{0, 2, 3}, 5.0});
  const auto sorted = top.sorted();
  EXPECT_EQ(sorted[0].triplet, (Triplet{0, 1, 2}));
  EXPECT_EQ(sorted[1].triplet, (Triplet{0, 1, 3}));
}

TEST(TopK, MergeEqualsSequentialPushes) {
  TopK a(4), b(4), all(4);
  for (int i = 0; i < 20; ++i) {
    const ScoredTriplet s{Triplet{0, 1, static_cast<std::uint32_t>(i + 2)},
                          static_cast<double>((i * 7) % 13)};
    (i % 2 == 0 ? a : b).push(s);
    all.push(s);
  }
  a.merge(b);
  const auto lhs = a.sorted();
  const auto rhs = all.sorted();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].triplet, rhs[i].triplet);
    EXPECT_DOUBLE_EQ(lhs[i].score, rhs[i].score);
  }
}

TEST(TopK, ZeroCapacityClampsToOne) {
  TopK top(0);
  top.push({Triplet{0, 1, 2}, 1.0});
  EXPECT_EQ(top.sorted().size(), 1u);
}

// --------------------------------------------------------------------------
// Detector
// --------------------------------------------------------------------------

const std::vector<CpuVersion>& all_versions() {
  static const std::vector<CpuVersion> v = {
      CpuVersion::kV1Naive, CpuVersion::kV2Split, CpuVersion::kV3Blocked,
      CpuVersion::kV4Vector, CpuVersion::kV5PairCache};
  return v;
}

TEST(Detector, RejectsTinyDatasets) {
  EXPECT_THROW(Detector(random_dataset({2, 10, 1})), std::invalid_argument);
}

TEST(Detector, RejectsBadOptions) {
  const Detector det(random_dataset({6, 50, 1}));
  DetectorOptions opt;
  opt.top_k = 0;
  EXPECT_THROW(det.run(opt), std::invalid_argument);
  opt = {};
  opt.range = {0, combinatorics::num_triplets(6) + 1};
  EXPECT_THROW(det.run(opt), std::invalid_argument);
}

TEST(Detector, AllVersionsAgreeOnBestTriplet) {
  const auto d = planted_dataset(10, 500, 11);
  const Detector det(d);
  std::vector<DetectionResult> results;
  for (const CpuVersion v : all_versions()) {
    DetectorOptions opt;
    opt.version = v;
    results.push_back(det.run(opt));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].best.empty());
    EXPECT_EQ(results[i].best[0].triplet, results[0].best[0].triplet)
        << cpu_version_name(all_versions()[i]);
    EXPECT_DOUBLE_EQ(results[i].best[0].score, results[0].best[0].score);
  }
}

class DetectorVersionTest : public ::testing::TestWithParam<CpuVersion> {};

INSTANTIATE_TEST_SUITE_P(Versions, DetectorVersionTest,
                         ::testing::ValuesIn(all_versions()),
                         [](const auto& info) {
                           std::string n = cpu_version_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST_P(DetectorVersionTest, FindsPlantedInteraction) {
  const auto d = planted_dataset(12, 1500, 21);
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  const DetectionResult r = det.run(opt);
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best[0].triplet, (Triplet{1, 3, 5}));
}

TEST_P(DetectorVersionTest, DeterministicAcrossThreadCounts) {
  const auto d = random_dataset({14, 150, 5});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  opt.top_k = 5;
  const DetectionResult one = det.run(opt);
  for (unsigned threads : {2u, 4u}) {
    opt.threads = threads;
    const DetectionResult multi = det.run(opt);
    ASSERT_EQ(multi.best.size(), one.best.size());
    for (std::size_t i = 0; i < one.best.size(); ++i) {
      EXPECT_EQ(multi.best[i].triplet, one.best[i].triplet) << i;
      EXPECT_DOUBLE_EQ(multi.best[i].score, one.best[i].score) << i;
    }
  }
}

TEST_P(DetectorVersionTest, TieBreakingMakesOneAndEightThreadsIdentical) {
  // A dataset with duplicated SNP columns produces exact score ties; the
  // rank tie-break in TopK and in the final merge must make the reported
  // top-k identical whatever the thread count.
  const auto base = random_dataset({7, 160, 77});
  dataset::GenotypeMatrix d(14, base.num_samples());
  for (std::size_t m = 0; m < 14; ++m) {
    for (std::size_t j = 0; j < base.num_samples(); ++j) {
      d.set(m, j, base.at(m % 7, j));
    }
  }
  for (std::size_t j = 0; j < base.num_samples(); ++j) {
    d.set_phenotype(j, base.phenotype(j));
  }
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  opt.top_k = 12;
  opt.threads = 1;
  const DetectionResult one = det.run(opt);
  opt.threads = 8;
  opt.chunk_size = 3;  // many chunks: maximal interleaving across threads
  const DetectionResult eight = det.run(opt);
  ASSERT_EQ(one.best.size(), eight.best.size());
  for (std::size_t i = 0; i < one.best.size(); ++i) {
    EXPECT_EQ(eight.best[i].triplet, one.best[i].triplet) << i;
    EXPECT_DOUBLE_EQ(eight.best[i].score, one.best[i].score) << i;
  }
}

TEST_P(DetectorVersionTest, CountsAndMetadata) {
  const auto d = random_dataset({10, 100, 9});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = GetParam();
  const DetectionResult r = det.run(opt);
  EXPECT_EQ(r.combinations_evaluated, combinatorics::num_triplets(10));
  EXPECT_EQ(r.elements, r.combinations_evaluated * 100);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.elements_per_second(), 0.0);
}

TEST(Detector, V4UsesWidestIsaByDefault) {
  const auto d = random_dataset({8, 64, 3});
  const Detector det(d);
  for (const CpuVersion v : {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    DetectorOptions opt;
    opt.version = v;
    EXPECT_EQ(det.run(opt).isa_used, best_kernel_isa()) << cpu_version_name(v);
  }
}

TEST(Detector, V4ExplicitIsaRespected) {
  const auto d = random_dataset({8, 64, 3});
  const Detector det(d);
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions opt;
    opt.version = CpuVersion::kV4Vector;
    opt.isa = isa;
    opt.isa_auto = false;
    const DetectionResult r = det.run(opt);
    EXPECT_EQ(r.isa_used, isa);
  }
}

TEST(Detector, AllIsasProduceIdenticalResults) {
  const auto d = random_dataset({12, 321, 13});
  const Detector det(d);
  DetectorOptions base;
  base.version = CpuVersion::kV4Vector;
  base.isa = KernelIsa::kScalar;
  base.isa_auto = false;
  base.top_k = 10;
  const DetectionResult ref = det.run(base);
  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions opt = base;
    opt.isa = isa;
    const DetectionResult r = det.run(opt);
    ASSERT_EQ(r.best.size(), ref.best.size());
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].triplet, ref.best[i].triplet)
          << kernel_isa_name(isa) << " rank " << i;
      EXPECT_DOUBLE_EQ(r.best[i].score, ref.best[i].score);
    }
  }
}

TEST(Detector, ObjectivesRankPlantedTripleFirst) {
  const auto d = planted_dataset(10, 2000, 31);
  const Detector det(d);
  for (const Objective o : {Objective::kK2, Objective::kMutualInformation,
                            Objective::kChiSquared}) {
    DetectorOptions opt;
    opt.objective = o;
    const DetectionResult r = det.run(opt);
    ASSERT_FALSE(r.best.empty());
    EXPECT_EQ(r.best[0].triplet, (Triplet{1, 3, 5})) << objective_name(o);
  }
}

/// The default MI objective scores by table lookups; a scan whose scorer is
/// the std::log reference formula must rank the same combinations with the
/// same score bits on V1, V4, V5 and the batched engine.
template <unsigned K>
void expect_mi_table_scan_matches_reference_formula(
    const dataset::GenotypeMatrix& d) {
  SCOPED_TRACE(K);
  using trigen::test::same_bits;
  const auto same = [](const std::vector<ScoredOf<K>>& got,
                       const std::vector<ScoredOf<K>>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(snps_of<K>(got[i]), snps_of<K>(want[i])) << "rank " << i;
      EXPECT_TRUE(same_bits(got[i].score, want[i].score)) << "rank " << i;
    }
  };
  const BasicDetector<K> det(d);
  BasicDetectorOptions<K> table;
  table.objective = Objective::kMutualInformation;
  table.top_k = 12;
  table.threads = 3;
  BasicDetectorOptions<K> reference = table;
  reference.scorer = [](const scoring::BasicContingencyTable<K>& t) {
    return -scoring::mutual_information_cells(t.counts[0], t.counts[1]);
  };
  for (const CpuVersion v : {CpuVersion::kV1Naive, CpuVersion::kV4Vector,
                             CpuVersion::kV5PairCache}) {
    SCOPED_TRACE(cpu_version_name(v));
    table.version = reference.version = v;
    same(det.run(table).best, det.run(reference).best);
  }

  std::vector<std::vector<dataset::Phenotype>> parts(
      3, std::vector<dataset::Phenotype>(d.num_samples()));
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    parts[0][j] = d.phenotype(j);
    parts[1][j] = static_cast<dataset::Phenotype>(1 - d.phenotype(j));
    parts[2][j] = static_cast<dataset::Phenotype>(j % 3 == 0);
  }
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  const auto got = det.run_batched(batch, table);
  const auto want = det.run_batched(batch, reference);
  ASSERT_EQ(got.best.size(), parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    SCOPED_TRACE(p);
    same(got.best[p], want.best[p]);
  }
}

TEST(Detector, MiTableScansMatchTheReferenceFormulaAtEveryOrder) {
  const auto d = random_dataset({10, 150, 61}, 0.35);
  expect_mi_table_scan_matches_reference_formula<2>(d);
  expect_mi_table_scan_matches_reference_formula<3>(d);
  expect_mi_table_scan_matches_reference_formula<4>(d);
  expect_mi_table_scan_matches_reference_formula<5>(d);
  expect_mi_table_scan_matches_reference_formula<6>(d);
}

TEST(Detector, TopKSortedAndUnique) {
  const auto d = random_dataset({12, 200, 17});
  const Detector det(d);
  DetectorOptions opt;
  opt.top_k = 20;
  const DetectionResult r = det.run(opt);
  ASSERT_EQ(r.best.size(), 20u);
  std::set<std::uint64_t> ranks;
  for (std::size_t i = 0; i < r.best.size(); ++i) {
    if (i > 0) EXPECT_LE(r.best[i - 1].score, r.best[i].score);
    ranks.insert(combinatorics::rank_triplet(r.best[i].triplet));
  }
  EXPECT_EQ(ranks.size(), 20u);
}

TEST(Detector, RangeRestrictionSplitsCoverageForEveryVersion) {
  const auto d = random_dataset({10, 100, 19});
  const Detector det(d);
  const std::uint64_t total = combinatorics::num_triplets(10);

  for (const CpuVersion v : all_versions()) {
    DetectorOptions full;
    full.version = v;
    full.top_k = 1;
    const auto best_full = det.run(full).best[0];

    // Best of [0, s) and [s, total) merged must equal the global best.
    for (const std::uint64_t s : {std::uint64_t{1}, total / 4, total / 2,
                                  total - 1}) {
      DetectorOptions lo = full, hi = full;
      lo.range = {0, s};
      hi.range = {s, total};
      const auto a = det.run(lo);
      const auto b = det.run(hi);
      EXPECT_EQ(a.combinations_evaluated + b.combinations_evaluated, total);
      const auto& merged_best =
          a.best[0].score <= b.best[0].score ? a.best[0] : b.best[0];
      EXPECT_EQ(merged_best.triplet, best_full.triplet)
          << cpu_version_name(v) << " s=" << s;
    }
  }
}

TEST(Detector, KWaySplitReproducesFullTopKExactly) {
  // Property behind sharded scans and the hetero split: a V4 partial-range
  // scan union over ANY full-coverage split must reproduce the full-scan
  // top-k triplet-for-triplet, for any tiling (block boundaries and rank
  // boundaries are deliberately unaligned).
  const auto d = random_dataset({16, 200, 7});
  const Detector det(d);
  const std::uint64_t total = combinatorics::num_triplets(16);

  for (const TilingParams tiling : {TilingParams{0, 0}, TilingParams{3, 16},
                                    TilingParams{5, 8}}) {
   for (const CpuVersion version :
        {CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    DetectorOptions base;
    base.version = version;
    base.top_k = 15;
    base.tiling = tiling;
    const auto full = det.run(base);

    for (const unsigned k : {2u, 3u, 5u, 8u}) {
      TopK merged(base.top_k);
      std::uint64_t covered = 0;
      for (unsigned i = 0; i < k; ++i) {
        DetectorOptions part = base;
        part.range = {total * i / k, total * (i + 1) / k};
        const auto r = det.run(part);
        covered += r.combinations_evaluated;
        for (const auto& s : r.best) merged.push(s);
      }
      ASSERT_EQ(covered, total) << k;
      const auto got = merged.sorted();
      ASSERT_EQ(got.size(), full.best.size()) << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].triplet, full.best[i].triplet)
            << "k=" << k << " bs=" << tiling.bs << " rank " << i << " "
            << cpu_version_name(version);
        EXPECT_DOUBLE_EQ(got[i].score, full.best[i].score);
      }
    }
   }
  }
}

TEST(Detector, V5BitIdenticalToV2OverRandomRankRanges) {
  // The V5 acceptance property: for every compiled-in ISA, the cached
  // engine reproduces the V2 per-triplet reference score-bit-for-score-bit
  // over the full space and over arbitrary K-way rank splits.
  const auto d = random_dataset({17, 210, 97});
  const Detector det(d);
  const std::uint64_t total = combinatorics::num_triplets(17);

  DetectorOptions ref_opt;
  ref_opt.version = CpuVersion::kV2Split;
  ref_opt.top_k = 12;
  const auto ref = det.run(ref_opt);

  for (const KernelIsa isa : all_kernel_isas()) {
    if (!kernel_available(isa)) continue;
    DetectorOptions v5;
    v5.version = CpuVersion::kV5PairCache;
    v5.isa = isa;
    v5.isa_auto = false;
    v5.top_k = 12;
    v5.tiling = {3, 16};  // deliberately unaligned with the dataset
    const auto full = det.run(v5);
    ASSERT_EQ(full.best.size(), ref.best.size()) << kernel_isa_name(isa);
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(full.best[i].triplet, ref.best[i].triplet)
          << kernel_isa_name(isa) << " rank " << i;
      EXPECT_EQ(full.best[i].score, ref.best[i].score)
          << kernel_isa_name(isa) << " rank " << i;
    }

    // Random full-coverage splits: the merged partial V5 scans must also
    // reproduce the V2 reference exactly.
    std::mt19937_64 rng(53 + static_cast<unsigned>(isa));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint64_t> cuts = {0, total};
      std::uniform_int_distribution<std::uint64_t> dist(1, total - 1);
      while (cuts.size() < static_cast<std::size_t>(round) + 3) {
        cuts.push_back(dist(rng));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      TopK acc(v5.top_k);
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        DetectorOptions part = v5;
        part.range = {cuts[i], cuts[i + 1]};
        const auto r = det.run(part);
        covered += r.combinations_evaluated;
        for (const auto& s : r.best) acc.push(s);
      }
      ASSERT_EQ(covered, total);
      const auto got = acc.sorted();
      ASSERT_EQ(got.size(), ref.best.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].triplet, ref.best[i].triplet)
            << kernel_isa_name(isa) << " round " << round << " rank " << i;
        EXPECT_EQ(got[i].score, ref.best[i].score);
      }
    }
  }
}

TEST(Detector, BlockedPartialRangeCountsEveryTripletOnce) {
  // combinations_evaluated must equal the range size on the blocked paths too
  // (each in-range triplet is emitted exactly once across boundary blocks).
  const auto d = random_dataset({12, 96, 3});
  const Detector det(d);
  const std::uint64_t total = combinatorics::num_triplets(12);
  for (const CpuVersion v : {CpuVersion::kV3Blocked, CpuVersion::kV4Vector,
                             CpuVersion::kV5PairCache}) {
    for (const std::uint64_t first : {std::uint64_t{0}, total / 3}) {
      for (const std::uint64_t last : {total / 3 + 1, total - 7, total}) {
        DetectorOptions opt;
        opt.version = v;
        opt.tiling = {3, 8};
        opt.range = {first, last};
        std::uint64_t seen = 0;
        opt.progress = [&](std::uint64_t done, std::uint64_t t) {
          seen = done;
          EXPECT_EQ(t, last - first);
        };
        const auto r = det.run(opt);
        EXPECT_EQ(r.combinations_evaluated, last - first);
        EXPECT_EQ(seen, last - first) << cpu_version_name(v);
      }
    }
  }
}

TEST(Detector, ProgressCallbackIsMonotoneAndComplete) {
  const auto d = random_dataset({12, 150, 41});
  const Detector det(d);
  for (const CpuVersion v : all_versions()) {
    DetectorOptions opt;
    opt.version = v;
    opt.threads = 4;
    opt.chunk_size = 7;
    std::vector<std::uint64_t> reports;
    opt.progress = [&](std::uint64_t done, std::uint64_t total) {
      EXPECT_EQ(total, combinatorics::num_triplets(12));
      reports.push_back(done);
    };
    det.run(opt);
    ASSERT_FALSE(reports.empty()) << cpu_version_name(v);
    EXPECT_TRUE(std::is_sorted(reports.begin(), reports.end()));
    EXPECT_EQ(reports.back(), combinatorics::num_triplets(12))
        << cpu_version_name(v);
  }
}

TEST(Detector, ExplicitTilingHonored) {
  const auto d = random_dataset({9, 80, 2});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = CpuVersion::kV3Blocked;
  opt.tiling = {2, 16};
  const DetectionResult r = det.run(opt);
  EXPECT_EQ(r.tiling_used.bs, 2u);
  EXPECT_EQ(r.tiling_used.bp_words, 16u);
}

TEST(Detector, ExplicitIsaAndTilingPinLandInResultAndAreBitIdentical) {
  const auto d = random_dataset({12, 100, 11});
  const Detector det(d);

  DetectorOptions analytic;
  analytic.version = CpuVersion::kV5PairCache;
  analytic.top_k = 5;
  const auto base = det.run(analytic);
  // Fully auto: the widest ISA and the analytic L1 model.
  EXPECT_EQ(base.isa_used, best_kernel_isa());
  EXPECT_EQ(base.tiling_used.bs,
            scan_tiling(detect_l1_config(), 3, CpuVersion::kV5PairCache,
                        base.isa_used, d.num_snps(), {}, 1)
                .bs);

  // A deliberately non-analytic pin of both ISA and tiling.
  DetectorOptions pinned = analytic;
  pinned.isa = KernelIsa::kScalar;
  pinned.isa_auto = false;
  pinned.tiling = {3, 64};
  const auto r = det.run(pinned);

  // The pinned configuration is what actually ran...
  EXPECT_EQ(r.isa_used, KernelIsa::kScalar);
  EXPECT_EQ(r.tiling_used.bs, 3u);
  EXPECT_EQ(r.tiling_used.bp_words, 64u);
  // ...and the results are bit-identical to the analytic configuration.
  ASSERT_EQ(r.best.size(), base.best.size());
  for (std::size_t i = 0; i < base.best.size(); ++i) {
    EXPECT_EQ(r.best[i].triplet, base.best[i].triplet);
    EXPECT_EQ(std::memcmp(&r.best[i].score, &base.best[i].score,
                          sizeof(double)),
              0);
  }
}

TEST(Detector, BatchedScanHonorsExplicitPins) {
  const auto d = random_dataset({10, 100, 5});
  const Detector det(d);
  std::vector<std::vector<dataset::Phenotype>> parts(
      3, std::vector<dataset::Phenotype>(d.num_samples(), 0));
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t s = p; s < parts[p].size(); s += p + 2) parts[p][s] = 1;
  }
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  DetectorOptions opt;
  const auto base = det.run_batched(batch, opt);
  EXPECT_EQ(base.isa_used, best_kernel_isa());
  opt.isa = KernelIsa::kScalar;
  opt.isa_auto = false;
  opt.tiling = {3, 64};
  const auto r = det.run_batched(batch, opt);
  EXPECT_EQ(r.isa_used, KernelIsa::kScalar);
  EXPECT_EQ(r.tiling_used.bs, 3u);
  EXPECT_EQ(r.tiling_used.bp_words, 64u);
}

TEST(Detector, ChunkSizeDoesNotChangeResults)
{
  const auto d = random_dataset({11, 90, 8});
  const Detector det(d);
  DetectorOptions opt;
  opt.version = CpuVersion::kV2Split;
  opt.top_k = 3;
  const auto ref = det.run(opt);
  for (std::uint64_t chunk : {1ull, 7ull, 1000000ull}) {
    opt.chunk_size = chunk;
    const auto r = det.run(opt);
    for (std::size_t i = 0; i < ref.best.size(); ++i) {
      EXPECT_EQ(r.best[i].triplet, ref.best[i].triplet) << chunk;
    }
  }
}

}  // namespace
}  // namespace trigen::core

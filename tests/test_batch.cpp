/// \file test_batch.cpp
/// \brief Acceptance battery of the batched multi-phenotype scan path.
///
/// The anchor property is *bit identity to the sequential path*: a
/// P-partition batched scan must reproduce P dedicated per-phenotype scans
/// exactly — same integer tables, same normalized scores bit-for-bit, same
/// deterministic top-k — for k in {2, 3, 4}, on every compiled-in ISA,
/// over the full rank space and over arbitrary rank splits.  On top of
/// that: the batch kernels against their scalar reference, degenerate
/// (all-case / all-control / single-sample-class) partitions, the
/// batched-vs-sequential permutation test, and the V5 tile the batched
/// scan runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <vector>

#include "test_util.hpp"
#include "trigen/common/aligned.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/stats/permutation.hpp"

namespace trigen {
namespace {

using core::BasicDetector;
using core::BasicDetectorOptions;
using core::KernelIsa;
using core::Objective;
using dataset::GenotypeMatrix;
using dataset::Phenotype;
using dataset::PhenotypeBatch;
using dataset::Word;
using trigen::test::random_dataset;

using trigen::test::same_bits;

std::vector<KernelIsa> compiled_isas() {
  std::vector<KernelIsa> isas;
  for (const KernelIsa isa : core::all_kernel_isas()) {
    if (core::kernel_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// P partitions of d's samples: slot 0 is the dataset's own phenotype, the
/// rest are seeded shuffles of it (realistic class balance) — exactly the
/// shape permutation testing feeds the batched engine.
std::vector<std::vector<Phenotype>> make_partitions(const GenotypeMatrix& d,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  std::vector<std::vector<Phenotype>> parts;
  parts.reserve(count);
  std::vector<Phenotype> observed(d.num_samples());
  for (std::size_t j = 0; j < d.num_samples(); ++j) {
    observed[j] = d.phenotype(j);
  }
  parts.push_back(observed);
  SplitMix64 seeds(seed);
  for (std::size_t p = 1; p < count; ++p) {
    parts.push_back(stats::shuffled_labels(d, seeds.next()));
  }
  return parts;
}

/// Sequential reference: a dedicated scan of `d` relabeled with `labels`.
template <unsigned K>
std::vector<core::ScoredOf<K>> sequential_best(
    const GenotypeMatrix& d, const std::vector<Phenotype>& labels,
    const BasicDetectorOptions<K>& opt) {
  GenotypeMatrix relabeled = d;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    relabeled.set_phenotype(j, labels[j]);
  }
  const BasicDetector<K> det(relabeled);
  return det.run(opt).best;
}

template <unsigned K>
void expect_same_ranking(const std::vector<core::ScoredOf<K>>& batched,
                         const std::vector<core::ScoredOf<K>>& sequential,
                         const char* what) {
  ASSERT_EQ(batched.size(), sequential.size()) << what;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(core::snps_of<K>(batched[i]), core::snps_of<K>(sequential[i]))
        << what << " rank " << i;
    EXPECT_TRUE(same_bits(batched[i].score, sequential[i].score))
        << what << " rank " << i << ": " << batched[i].score << " vs "
        << sequential[i].score;
  }
}

// ---------------------------------------------------------------------------
// PhenotypeBatch packing
// ---------------------------------------------------------------------------

TEST(PhenotypeBatch, PacksWordInterleavedLabelPlanes) {
  const std::size_t n = 40;  // two words, 24 pad bits in the second
  std::vector<std::vector<Phenotype>> parts(3,
                                            std::vector<Phenotype>(n, 0));
  parts[0][0] = 1;   // word 0, bit 0
  parts[1][33] = 1;  // word 1, bit 1
  parts[2].assign(n, 1);
  const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);

  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.num_samples(), n);
  EXPECT_EQ(batch.words(), dataset::padded_words_for(n));
  EXPECT_EQ(batch.stride(), dataset::kWordsPerVector);  // 3 rounded up
  EXPECT_EQ(batch.cases(0), 1u);
  EXPECT_EQ(batch.cases(1), 1u);
  EXPECT_EQ(batch.cases(2), n);
  EXPECT_EQ(batch.pad_bits(),
            batch.words() * dataset::kWordBits - n);

  const Word* labels = batch.word_labels();
  EXPECT_EQ(labels[0 * batch.stride() + 0], Word{1});
  EXPECT_EQ(labels[1 * batch.stride() + 0], Word{0});
  EXPECT_EQ(labels[0 * batch.stride() + 1], Word{0});
  EXPECT_EQ(labels[1 * batch.stride() + 1], Word{1} << 1);
  EXPECT_EQ(labels[0 * batch.stride() + 2], ~Word{0});
  // Tail padding and surplus lanes stay zero.
  EXPECT_EQ(labels[1 * batch.stride() + 2], (Word{1} << 8) - 1);
  for (std::size_t w = 0; w < batch.words(); ++w) {
    for (std::size_t p = 3; p < batch.stride(); ++p) {
      EXPECT_EQ(labels[w * batch.stride() + p], Word{0});
    }
  }
}

TEST(PhenotypeBatch, RejectsBadInput) {
  EXPECT_THROW(PhenotypeBatch::build(4, {}), std::invalid_argument);
  EXPECT_THROW(PhenotypeBatch::build(4, {std::vector<Phenotype>(3, 0)}),
               std::invalid_argument);
  std::vector<Phenotype> bad(4, 0);
  bad[2] = 2;
  EXPECT_THROW(PhenotypeBatch::build(4, {bad}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch kernels against the scalar reference
// ---------------------------------------------------------------------------

TEST(BatchKernels, EveryIsaMatchesScalar) {
  constexpr std::size_t kCount = 9;       // planes (a k=3 final rung)
  constexpr std::size_t kStride = 32;     // plane stride in words
  constexpr std::size_t kLabels = 19;     // partitions (not a lane multiple)
  constexpr std::size_t kLStride = 32;    // label lane stride
  constexpr std::size_t kWords = 27;      // odd word count: no vector shape
  Xoshiro256 rng(123);

  aligned_vector<Word> prefix(kCount * kStride);
  aligned_vector<Word> labels(kWords * kLStride, 0);
  aligned_vector<Word> z0(kWords), z1(kWords);
  for (Word& w : prefix) w = static_cast<Word>(rng());
  for (std::size_t w = 0; w < kWords; ++w) {
    for (std::size_t p = 0; p < kLabels; ++p) {
      labels[w * kLStride + p] = static_cast<Word>(rng());
    }
    z0[w] = static_cast<Word>(rng());
    z1[w] = static_cast<Word>(~z0[w] & rng());  // disjoint, like planes
  }
  std::vector<std::uint32_t> prefix_pops(kCount, 0);
  for (std::size_t t = 0; t < kCount; ++t) {
    for (std::size_t w = 0; w < kWords; ++w) {
      prefix_pops[t] += static_cast<std::uint32_t>(
          std::popcount(prefix[t * kStride + w]));
    }
  }

  const core::BatchKernelSet ref = core::get_batch_kernels(KernelIsa::kScalar);
  std::vector<std::uint32_t> ref_pops(kCount * kLStride, 0);
  ref.label_pops(prefix.data(), kCount, kStride, labels.data(), kLabels,
                 kLStride, 0, kWords, ref_pops.data());
  constexpr std::size_t kCells = kCount * 3;
  std::vector<std::uint32_t> ref_ft((1 + kLabels) * kCells, 7);  // adds, not zeroes
  ref.finalize(prefix.data(), kCount, kStride, prefix_pops.data(),
               ref_pops.data(), z0.data(), z1.data(), labels.data(), kLabels,
               kLStride, 0, kWords, ref_ft.data(), kCells);

  for (const KernelIsa isa : compiled_isas()) {
    SCOPED_TRACE(core::kernel_isa_name(isa));
    const core::BatchKernelSet k = core::get_batch_kernels(isa);
    std::vector<std::uint32_t> pops(kCount * kLStride, 0);
    k.label_pops(prefix.data(), kCount, kStride, labels.data(), kLabels,
                 kLStride, 0, kWords, pops.data());
    EXPECT_EQ(pops, ref_pops);
    std::vector<std::uint32_t> ft((1 + kLabels) * kCells, 7);
    k.finalize(prefix.data(), kCount, kStride, prefix_pops.data(),
               pops.data(), z0.data(), z1.data(), labels.data(), kLabels,
               kLStride, 0, kWords, ft.data(), kCells);
    EXPECT_EQ(ft, ref_ft);
  }
}

// ---------------------------------------------------------------------------
// Batched scan == P sequential scans, bit for bit
// ---------------------------------------------------------------------------

template <unsigned K>
void batched_matches_sequential(const GenotypeMatrix& d, std::size_t nparts,
                                KernelIsa isa,
                                combinatorics::RankRange range) {
  BasicDetectorOptions<K> opt;
  opt.isa = isa;
  opt.isa_auto = false;
  opt.version = core::CpuVersion::kV5PairCache;
  opt.top_k = 3;
  opt.threads = 2;
  opt.range = range;

  const auto parts = make_partitions(d, nparts, 99);
  const PhenotypeBatch batch = PhenotypeBatch::build(d.num_samples(), parts);
  const BasicDetector<K> det(d);
  const auto batched = det.run_batched(batch, opt);
  ASSERT_EQ(batched.best.size(), nparts);

  for (std::size_t p = 0; p < nparts; ++p) {
    SCOPED_TRACE(p);
    const auto sequential = sequential_best<K>(d, parts[p], opt);
    expect_same_ranking<K>(batched.best[p], sequential, "partition");
  }
}

TEST(BatchedScan, MatchesSequentialEveryIsaAndOrder) {
  const GenotypeMatrix d = random_dataset({12, 100, 21}, 0.4);
  for (const KernelIsa isa : compiled_isas()) {
    SCOPED_TRACE(core::kernel_isa_name(isa));
    batched_matches_sequential<2>(d, 5, isa, {0, 0});
    batched_matches_sequential<3>(d, 5, isa, {0, 0});
    batched_matches_sequential<4>(d, 5, isa, {0, 0});
  }
}

TEST(BatchedScan, MatchesSequentialAcrossShapes) {
  const KernelIsa isa = core::best_kernel_isa();
  for (const auto& shape : trigen::test::small_shapes()) {
    SCOPED_TRACE(std::get<0>(shape));
    const GenotypeMatrix d = random_dataset(shape, 0.3);
    batched_matches_sequential<3>(d, 4, isa, {0, 0});
  }
}

TEST(BatchedScan, MatchesSequentialOnRandomRankSplits) {
  const GenotypeMatrix d = random_dataset({14, 130, 31}, 0.5);
  const KernelIsa isa = core::best_kernel_isa();
  Xoshiro256 rng(7);
  const auto split_case = [&](auto order_tag) {
    constexpr unsigned K = decltype(order_tag)::value;
    const std::uint64_t total =
        combinatorics::n_choose_k(d.num_snps(), K);
    for (int trial = 0; trial < 4; ++trial) {
      std::uint64_t a = rng.bounded(total);
      std::uint64_t b = rng.bounded(total);
      if (a > b) std::swap(a, b);
      if (a == b) b = a + 1;
      SCOPED_TRACE(static_cast<int>(K));
      batched_matches_sequential<K>(d, 3, isa, {a, b});
    }
  };
  split_case(std::integral_constant<unsigned, 2>{});
  split_case(std::integral_constant<unsigned, 3>{});
  split_case(std::integral_constant<unsigned, 4>{});
}

// ---------------------------------------------------------------------------
// Degenerate partitions
// ---------------------------------------------------------------------------

TEST(BatchedScan, DegeneratePartitionsMatchSequentialEveryObjective) {
  const GenotypeMatrix d = random_dataset({10, 67, 41}, 0.4);
  const std::size_t n = d.num_samples();
  std::vector<std::vector<Phenotype>> parts;
  parts.push_back(std::vector<Phenotype>(n, 1));  // all-case
  parts.push_back(std::vector<Phenotype>(n, 0));  // all-control
  std::vector<Phenotype> one_case(n, 0);
  one_case[n / 2] = 1;  // single-sample case class
  parts.push_back(one_case);
  std::vector<Phenotype> one_ctrl(n, 1);
  one_ctrl[0] = 0;  // single-sample control class
  parts.push_back(one_ctrl);

  const PhenotypeBatch batch = PhenotypeBatch::build(n, parts);
  const BasicDetector<3> det(d);
  for (const Objective obj :
       {Objective::kK2, Objective::kMutualInformation,
        Objective::kChiSquared}) {
    SCOPED_TRACE(core::objective_name(obj));
    BasicDetectorOptions<3> opt;
    opt.objective = obj;
    opt.top_k = 2;
    const auto batched = det.run_batched(batch, opt);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      SCOPED_TRACE(p);
      const auto sequential = sequential_best<3>(d, parts[p], opt);
      expect_same_ranking<3>(batched.best[p], sequential, "degenerate");
      for (const auto& s : batched.best[p]) {
        EXPECT_FALSE(std::isnan(s.score));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Permutation testing: every batch setting is bit-identical
// ---------------------------------------------------------------------------

template <unsigned K>
void permutation_paths_agree(const GenotypeMatrix& d) {
  stats::BasicPermutationTestOptions<K> base;
  base.permutations = 6;
  base.seed = 17;
  base.detector.threads = 2;

  auto batched = base;
  batched.batch = 0;
  const auto full = stats::permutation_test_of<K>(d, batched);

  auto sequential = base;
  sequential.batch = 1;
  const auto seq = stats::permutation_test_of<K>(d, sequential);

  auto chunked = base;
  chunked.batch = 3;  // observed+nulls split across 3 uneven chunks
  const auto chk = stats::permutation_test_of<K>(d, chunked);

  for (const auto* r : {&full, &chk}) {
    EXPECT_EQ(core::snps_of<K>(r->observed), core::snps_of<K>(seq.observed));
    EXPECT_TRUE(same_bits(r->observed.score, seq.observed.score));
    ASSERT_EQ(r->null_scores.size(), seq.null_scores.size());
    for (std::size_t i = 0; i < seq.null_scores.size(); ++i) {
      EXPECT_TRUE(same_bits(r->null_scores[i], seq.null_scores[i])) << i;
    }
    EXPECT_EQ(r->p_value, seq.p_value);
  }
}

TEST(BatchedPermutation, AgreesWithSequentialPath) {
  permutation_paths_agree<2>(random_dataset({10, 80, 51}, 0.4));
  permutation_paths_agree<3>(random_dataset({9, 70, 52}, 0.4));
}

TEST(BatchedPermutation, ShuffleHelpersShareOneStream) {
  const GenotypeMatrix d = random_dataset({6, 50, 61}, 0.5);
  const auto labels = stats::shuffled_labels(d, 42);
  const GenotypeMatrix shuffled = stats::shuffle_phenotypes(d, 42);
  ASSERT_EQ(labels.size(), d.num_samples());
  for (std::size_t j = 0; j < labels.size(); ++j) {
    EXPECT_EQ(labels[j], shuffled.phenotype(j));
  }
  // Same multiset of labels, different order (for any nontrivial shuffle).
  std::size_t cases = 0, orig_cases = 0;
  for (std::size_t j = 0; j < labels.size(); ++j) {
    cases += labels[j];
    orig_cases += d.phenotype(j);
  }
  EXPECT_EQ(cases, orig_cases);
}

// ---------------------------------------------------------------------------
// Batched tiling
// ---------------------------------------------------------------------------

/// run_batched's auto tile: V5's scan_tiling tile for the same range and
/// threads, with B_S capped at order >= 3 so the B_S live groups of 1 + P
/// tables fit kBatchTableBytes.
template <unsigned K>
void expect_scan_tile(const GenotypeMatrix& d, const PhenotypeBatch& batch,
                      const std::vector<combinatorics::RankRange>& ranges) {
  const BasicDetector<K> det(d);
  const std::size_t cap = core::kBatchTableBytes /
                          ((1 + batch.size()) * core::pow3(K) * 4);
  for (const combinatorics::RankRange& range : ranges) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "order " << K << " partitions " << batch.size()
                   << " range " << range.first << ":" << range.last
                   << " threads " << threads);
      BasicDetectorOptions<K> opt;
      opt.range = range;
      opt.threads = threads;
      const auto r = det.run_batched(batch, opt);
      core::TilingParams want = core::scan_tiling(
          core::detect_l1_config(), K, core::CpuVersion::kV5PairCache,
          r.isa_used, d.num_snps(), range, threads);
      if (K >= 3) want.bs = std::clamp<std::size_t>(cap, 1, want.bs);
      EXPECT_EQ(r.tiling_used.bs, want.bs);
      EXPECT_EQ(r.tiling_used.bp_words, want.bp_words);
    }
  }
}

TEST(BatchTiling, RunBatchedTakesTheV5ScanTile) {
  // A batched scan is the V5 ladder walk with the batched leaf, so it runs
  // V5's tile; only at large P does the table cap lower B_S.
  const GenotypeMatrix d = random_dataset({80, 64, 71}, 0.4);
  const PhenotypeBatch batch =
      PhenotypeBatch::build(d.num_samples(), make_partitions(d, 5, 72));
  const auto ranges = [&](unsigned k) {
    const std::uint64_t total = combinatorics::n_choose_k(d.num_snps(), k);
    return std::vector<combinatorics::RankRange>{
        {}, {total / 2, total / 2 + 100}};
  };
  expect_scan_tile<2>(d, batch, ranges(2));
  expect_scan_tile<3>(d, batch, ranges(3));
  // 1000 partitions at k = 3: 16 groups of 1000 tables would hold 1.7 MiB.
  const GenotypeMatrix small = random_dataset({20, 64, 73}, 0.4);
  const PhenotypeBatch wide =
      PhenotypeBatch::build(small.num_samples(),
                            make_partitions(small, 1000, 74));
  expect_scan_tile<3>(small, wide, {{}});
  BasicDetectorOptions<3> opt;
  opt.threads = 1;
  EXPECT_EQ(BasicDetector<3>(small).run_batched(wide, opt).tiling_used.bs, 4u);
}

}  // namespace
}  // namespace trigen

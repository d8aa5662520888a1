#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "test_util.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/scoring/chi_squared.hpp"
#include "trigen/scoring/contingency.hpp"
#include "trigen/scoring/k2.hpp"
#include "trigen/scoring/mutual_information.hpp"

namespace trigen::scoring {
namespace {

using trigen::test::random_dataset;
using trigen::test::same_bits;
using trigen::test::small_shapes;

ContingencyTable random_table(std::uint64_t seed, std::uint32_t max_count) {
  Xoshiro256 rng(seed);
  ContingencyTable t;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < kCells; ++i) {
      t.counts[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(rng.bounded(max_count + 1));
    }
  }
  return t;
}

// --------------------------------------------------------------------------
// ContingencyTable basics
// --------------------------------------------------------------------------

TEST(Contingency, CellIndexBijective) {
  bool seen[27] = {};
  for (int gx = 0; gx < 3; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      for (int gz = 0; gz < 3; ++gz) {
        const int i = cell_index(gx, gy, gz);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, 27);
        ASSERT_FALSE(seen[i]);
        seen[i] = true;
      }
    }
  }
}

TEST(Contingency, TotalsSum) {
  ContingencyTable t;
  t.counts[0][0] = 5;
  t.counts[1][26] = 7;
  EXPECT_EQ(t.class_total(0), 5u);
  EXPECT_EQ(t.class_total(1), 7u);
  EXPECT_EQ(t.total(), 12u);
}

TEST(Contingency, ReferenceCountsEverySampleOnce) {
  for (const auto& shape : small_shapes()) {
    const auto d = random_dataset(shape);
    if (d.num_snps() < 3) continue;
    const ContingencyTable t = reference_contingency(d, 0, 1, 2);
    EXPECT_EQ(t.total(), d.num_samples());
    EXPECT_EQ(t.class_total(0), d.class_count(0));
    EXPECT_EQ(t.class_total(1), d.class_count(1));
  }
}

TEST(Contingency, ReferenceMatchesHandComputedExample) {
  // 4 samples: genotypes chosen so each lands in a known cell.
  dataset::GenotypeMatrix d(3, 4);
  // sample 0: (0,1,2) control; sample 1: (0,1,2) case;
  // sample 2: (2,2,2) case; sample 3: (1,0,0) control.
  d.set(0, 0, 0); d.set(1, 0, 1); d.set(2, 0, 2);
  d.set(0, 1, 0); d.set(1, 1, 1); d.set(2, 1, 2);
  d.set(0, 2, 2); d.set(1, 2, 2); d.set(2, 2, 2);
  d.set(0, 3, 1); d.set(1, 3, 0); d.set(2, 3, 0);
  d.set_phenotype(1, 1);
  d.set_phenotype(2, 1);
  const ContingencyTable t = reference_contingency(d, 0, 1, 2);
  EXPECT_EQ(t.at(0, 1, 2, 0), 1u);
  EXPECT_EQ(t.at(0, 1, 2, 1), 1u);
  EXPECT_EQ(t.at(2, 2, 2, 1), 1u);
  EXPECT_EQ(t.at(1, 0, 0, 0), 1u);
  EXPECT_EQ(t.total(), 4u);
}

TEST(Contingency, ReferenceOutOfRangeThrows) {
  const auto d = random_dataset({4, 10, 1});
  EXPECT_THROW(reference_contingency(d, 0, 1, 4), std::out_of_range);
}

// --------------------------------------------------------------------------
// Log-factorial table
// --------------------------------------------------------------------------

TEST(LogFactorial, MatchesLgamma) {
  const LogFactorialTable t(1000);
  for (std::uint32_t n : {0u, 1u, 2u, 5u, 10u, 100u, 999u, 1000u}) {
    EXPECT_NEAR(t(n), std::lgamma(static_cast<double>(n) + 1.0), 1e-9 * (n + 1))
        << n;
  }
}

TEST(LogFactorial, SmallValuesExact) {
  const LogFactorialTable t(10);
  EXPECT_DOUBLE_EQ(t(0), 0.0);
  EXPECT_DOUBLE_EQ(t(1), 0.0);
  EXPECT_NEAR(t(2), std::log(2.0), 1e-12);
  EXPECT_NEAR(t(3), std::log(6.0), 1e-12);
  EXPECT_NEAR(t(4), std::log(24.0), 1e-12);
}

TEST(LogFactorial, FallbackBeyondTable) {
  const LogFactorialTable t(10);
  EXPECT_NEAR(t(50), std::lgamma(51.0), 1e-8);
}

TEST(LogFactorial, Monotone) {
  const LogFactorialTable t(500);
  for (std::uint32_t n = 2; n <= 500; ++n) {
    ASSERT_GT(t(n), t(n - 1));
  }
}

// --------------------------------------------------------------------------
// K2 score
// --------------------------------------------------------------------------

double k2_direct(const ContingencyTable& t) {
  // Literal evaluation of Eq. 1 with lgamma.
  double score = 0.0;
  for (int i = 0; i < kCells; ++i) {
    const double r0 = t.counts[0][static_cast<std::size_t>(i)];
    const double r1 = t.counts[1][static_cast<std::size_t>(i)];
    score += std::lgamma(r0 + r1 + 2.0) - std::lgamma(r0 + 1.0) -
             std::lgamma(r1 + 1.0);
  }
  return score;
}

TEST(K2, MatchesDirectFormula) {
  const K2Score k2(4096);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ContingencyTable t = random_table(seed, 150);
    EXPECT_NEAR(k2(t), k2_direct(t), 1e-7) << "seed=" << seed;
  }
}

TEST(K2, EmptyTableScoresZero) {
  const K2Score k2(16);
  EXPECT_NEAR(k2(ContingencyTable{}), 0.0, 1e-12);
}

TEST(K2, LowerIsBetterTrait) { EXPECT_TRUE(K2Score::kLowerIsBetter); }

TEST(K2, SeparatedClassesScoreLowerThanMixed) {
  // A cell with (10, 10) costs more than cells with (20, 0): separation
  // (association) lowers K2.
  ContingencyTable mixed, separated;
  mixed.counts[0][0] = 10;
  mixed.counts[1][0] = 10;
  separated.counts[0][0] = 20;
  separated.counts[1][0] = 0;
  const K2Score k2(64);
  EXPECT_LT(k2(separated), k2(mixed));
}

TEST(K2, PermutationInvariantAcrossCells) {
  // K2 sums per-cell terms, so shuffling which cell holds which counts
  // does not change the score.
  ContingencyTable a, b;
  a.counts[0][0] = 8; a.counts[1][0] = 3;
  a.counts[0][5] = 1; a.counts[1][5] = 9;
  b.counts[0][20] = 8; b.counts[1][20] = 3;
  b.counts[0][13] = 1; b.counts[1][13] = 9;
  const K2Score k2(32);
  EXPECT_DOUBLE_EQ(k2(a), k2(b));
}

// --------------------------------------------------------------------------
// Mutual information
// --------------------------------------------------------------------------

TEST(MutualInformation, EmptyTableIsZero) {
  const MutualInformation mi;
  EXPECT_DOUBLE_EQ(mi(ContingencyTable{}), 0.0);
}

TEST(MutualInformation, IndependentIsZero) {
  // Identical class distributions across cells => MI == 0.
  ContingencyTable t;
  for (int i = 0; i < 4; ++i) {
    t.counts[0][static_cast<std::size_t>(i)] = 10;
    t.counts[1][static_cast<std::size_t>(i)] = 10;
  }
  const MutualInformation mi;
  EXPECT_NEAR(mi(t), 0.0, 1e-12);
}

TEST(MutualInformation, PerfectlyPredictiveEqualsClassEntropy) {
  // Cell 0 holds all controls, cell 1 all cases, balanced.
  ContingencyTable t;
  t.counts[0][0] = 50;
  t.counts[1][1] = 50;
  const MutualInformation mi;
  EXPECT_NEAR(mi(t), std::log(2.0), 1e-12);
}

TEST(MutualInformation, NonNegativeAndBounded) {
  const MutualInformation mi;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const ContingencyTable t = random_table(seed, 60);
    const double v = mi(t);
    ASSERT_GE(v, -1e-12) << seed;
    ASSERT_LE(v, std::log(2.0) + 1e-12) << seed;  // <= H(C) <= ln 2
  }
}

TEST(MutualInformation, HigherIsBetterTrait) {
  EXPECT_FALSE(MutualInformation::kLowerIsBetter);
}

// --------------------------------------------------------------------------
// Chi-squared
// --------------------------------------------------------------------------

TEST(ChiSquared, EmptyTableIsZero) {
  const ChiSquared chi;
  EXPECT_DOUBLE_EQ(chi(ContingencyTable{}), 0.0);
}

TEST(ChiSquared, NoAssociationIsZero) {
  ContingencyTable t;
  for (int i = 0; i < 6; ++i) {
    t.counts[0][static_cast<std::size_t>(i)] = 7;
    t.counts[1][static_cast<std::size_t>(i)] = 7;
  }
  const ChiSquared chi;
  EXPECT_NEAR(chi(t), 0.0, 1e-12);
}

TEST(ChiSquared, KnownTwoByTwoValue) {
  // Cells 0 and 1 only: [[30, 10], [10, 30]] has X^2 = 20 * 80^2 / ...
  // Compute directly: n=80, rows 40/40, cols 40/40; expected 20 each;
  // X^2 = 4 * (10^2 / 20) = 20.
  ContingencyTable t;
  t.counts[0][0] = 30;
  t.counts[1][0] = 10;
  t.counts[0][1] = 10;
  t.counts[1][1] = 30;
  const ChiSquared chi;
  EXPECT_NEAR(chi(t), 20.0, 1e-9);
}

TEST(ChiSquared, NonNegative) {
  const ChiSquared chi;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    ASSERT_GE(chi(random_table(seed, 40)), -1e-12);
  }
}

TEST(ChiSquared, StrongerAssociationScoresHigher) {
  ContingencyTable weak, strong;
  weak.counts[0][0] = 25; weak.counts[1][0] = 15;
  weak.counts[0][1] = 15; weak.counts[1][1] = 25;
  strong.counts[0][0] = 35; strong.counts[1][0] = 5;
  strong.counts[0][1] = 5;  strong.counts[1][1] = 35;
  const ChiSquared chi;
  EXPECT_GT(chi(strong), chi(weak));
}

// --------------------------------------------------------------------------
// MutualInformationTable: the reference formula's bits, by lookup
// --------------------------------------------------------------------------

/// Control and case cells of one table, for the span scorers.
struct CellTable {
  std::vector<std::uint32_t> controls, cases;
  explicit CellTable(std::size_t cells) : controls(cells), cases(cells) {}
  std::uint32_t& at(std::size_t i) {
    return i % 2 == 0 ? controls[i / 2] : cases[i / 2];
  }
};

/// Calls fn on every table of `cells` x 2 cells holding exactly `left`
/// samples in its cells from `i` on.
template <typename Fn>
void for_each_table_of_total(CellTable& t, std::size_t i, std::uint32_t left,
                             Fn&& fn) {
  if (i + 1 == 2 * t.controls.size()) {
    t.at(i) = left;
    fn(t);
    return;
  }
  for (std::uint32_t v = 0; v <= left; ++v) {
    t.at(i) = v;
    for_each_table_of_total(t, i + 1, left - v, fn);
  }
}

/// A table of `n` samples whose cells hold strongly uneven shares: most
/// cells are empty or tiny and a few hold most of the mass, as in real
/// scans where one class or genotype dominates.
CellTable skewed_table(Xoshiro256& rng, std::size_t cells, std::uint32_t n) {
  CellTable t(cells);
  std::vector<double> w(2 * cells);
  const double power = 1.0 + static_cast<double>(rng.bounded(12));
  double sum = 0.0;
  for (double& x : w) sum += x = std::pow(rng.uniform(), power);
  if (sum == 0.0) sum = w[0] = 1.0;
  std::uint64_t placed = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    t.at(i) = static_cast<std::uint32_t>(n * (w[i] / sum));
    placed += t.at(i);
  }
  for (; placed < n; ++placed) ++t.at(rng.bounded(w.size()));
  return t;
}

::testing::AssertionResult table_matches_reference(
    const MutualInformationTable& mi, const CellTable& t) {
  const double got = mi(t.controls, t.cases);
  const double want = mutual_information_cells(t.controls, t.cases);
  if (same_bits(got, want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << t.controls.size() << " cells: table " << std::hexfloat << got
         << " != reference " << want;
}

TEST(MutualInformationTable, EveryPairTableMatchesReferenceBitsUpToSixSamples) {
  for (std::uint32_t n = 1; n <= 6; ++n) {
    const MutualInformationTable mi(n);
    CellTable t(kPairCells);
    std::size_t tables = 0, mismatches = 0;
    for_each_table_of_total(t, 0, n, [&](const CellTable& table) {
      ++tables;
      if (!table_matches_reference(mi, table)) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u) << "N=" << n << " over " << tables << " tables";
  }
}

TEST(MutualInformationTable, SkewedRandomTablesMatchReferenceBitsAtEveryOrder) {
  Xoshiro256 rng(2026);
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 100u, 127u, 128u, 1000u, 2047u,
                                2048u, 4999u, 8192u, 10007u, 65535u}) {
    const MutualInformationTable mi(n);
    SCOPED_TRACE(n);
    for (unsigned k = 2; k <= 6; ++k) {
      for (int trial = 0; trial < 200; ++trial) {
        ASSERT_TRUE(table_matches_reference(
            mi, skewed_table(rng, num_cells(k), n)));
      }
    }
  }
}

TEST(MutualInformationTable, TablesOfAnotherTotalFallBackToTheReference) {
  constexpr std::uint32_t kN = 100;
  const MutualInformationTable mi(kN);
  Xoshiro256 rng(5);
  for (const std::uint32_t total : {0u, 1u, kN - 1, kN + 1, 5 * kN}) {
    for (unsigned k = 2; k <= 4; ++k) {
      SCOPED_TRACE(total);
      EXPECT_TRUE(table_matches_reference(
          mi, skewed_table(rng, num_cells(k), total)));
    }
  }
  // Counts far beyond N, whose 32-bit sum would wrap.
  CellTable huge(kCells);
  huge.controls[0] = std::numeric_limits<std::uint32_t>::max();
  huge.cases[26] = std::numeric_limits<std::uint32_t>::max();
  huge.cases[3] = 1 + kN;
  EXPECT_TRUE(table_matches_reference(mi, huge));
  // A table for N = 0 scores the empty table as 0 and the rest by formula.
  const MutualInformationTable none(0);
  EXPECT_TRUE(table_matches_reference(none, CellTable(kCells)));
  EXPECT_TRUE(table_matches_reference(none, skewed_table(rng, kCells, 50)));
}

TEST(MutualInformationTable, ScoresContingencyTablesLikeMutualInformation) {
  const auto d = trigen::test::planted_dataset(8, 777, 3);
  const MutualInformationTable table(777);
  const MutualInformation mi;
  for (const auto& [x, y, z] : {std::array<std::size_t, 3>{1, 3, 5},
                                std::array<std::size_t, 3>{0, 2, 6},
                                std::array<std::size_t, 3>{4, 5, 7}}) {
    const ContingencyTable t = reference_contingency(d, x, y, z);
    EXPECT_TRUE(same_bits(table(t), mi(t)));
  }
}

// --------------------------------------------------------------------------
// Cross-score sanity on real tables
// --------------------------------------------------------------------------

TEST(Scores, AgreeOnPlantedSignalDirection) {
  // On a dataset with a strong planted interaction, the planted triple must
  // beat a random triple under all three objectives.
  const auto d = trigen::test::planted_dataset(8, 2000, 3);
  const ContingencyTable planted = reference_contingency(d, 1, 3, 5);
  const ContingencyTable random = reference_contingency(d, 0, 2, 6);

  const K2Score k2(2000);
  const MutualInformation mi;
  const ChiSquared chi;
  EXPECT_LT(k2(planted), k2(random));
  EXPECT_GT(mi(planted), mi(random));
  EXPECT_GT(chi(planted), chi(random));
}

}  // namespace
}  // namespace trigen::scoring

#pragma once
/// \file mutual_information.hpp
/// \brief Mutual information objective — the score MPI3SNP uses.
///
/// I(G; C) = H(G) + H(C) - H(G, C) over the 27-cell genotype-combination
/// variable G and the binary class variable C, estimated from the
/// contingency table with maximum-likelihood (plug-in) probabilities.
/// MPI3SNP ranks triplets by *highest* mutual information; the baseline
/// engine uses this scorer so Table III compares like against like.

#include <cstdint>
#include <span>
#include <vector>

#include "trigen/scoring/contingency.hpp"

namespace trigen::scoring {

/// Plug-in mutual information I(G; C) in nats over parallel control/case
/// cell arrays of any length — the reference formula every MI scorer in
/// the repository reproduces bit for bit.  0 for empty tables; higher is
/// better.
double mutual_information_cells(std::span<const std::uint32_t> controls,
                                std::span<const std::uint32_t> cases);

class MutualInformation {
 public:
  /// Higher is better.
  static constexpr bool kLowerIsBetter = false;

  /// Plug-in MI in nats; 0 for empty tables.
  double operator()(const ContingencyTable& t) const {
    return mutual_information_cells(t.counts[0], t.counts[1]);
  }
};

/// Table-driven mutual_information_cells for tables of exactly N samples,
/// with the same bits.  The reference spends its time in std::log: it
/// evaluates x·ln x at p = c/N for every non-empty class total and cell,
/// and at the cell marginal j0 + j1.  Every count is in [0, N], so this
/// table stores, per c, q = c/N and x·ln x at q and at its two
/// neighbouring doubles.  The rounded marginal q[c0] + q[c1] lies within
/// one ulp of q[c0 + c1] (checked for every count pair at every N <= 1500
/// and at N = 2047, 2048, 4999, 8192, 10007 and 65535), so its x·ln x is
/// the stored value the bit distance picks; any wider distance falls back
/// to std::log.  The terms are subtracted in the reference's
/// order, and an empty cell's stored 0 subtracts exactly, so every score is
/// the reference's double.  A table whose total is not N is scored by the
/// reference formula.  Costs 32·(N+1) bytes.
class MutualInformationTable {
 public:
  /// Higher is better.
  static constexpr bool kLowerIsBetter = false;

  /// `num_samples` is the dataset's N, the total of every table it scores.
  explicit MutualInformationTable(std::uint32_t num_samples);

  /// Plug-in MI in nats over cell arrays of any length.
  double operator()(std::span<const std::uint32_t> controls,
                    std::span<const std::uint32_t> cases) const;

  template <unsigned K>
  double operator()(const BasicContingencyTable<K>& t) const {
    return (*this)(t.counts[0], t.counts[1]);
  }

 private:
  /// q = c/N and x·ln x at q's lower neighbour, q and its upper neighbour.
  struct alignas(32) Entry {
    double q;
    double xlogx[3];
  };
  std::uint32_t num_samples_;
  std::vector<Entry> entries_;
};

}  // namespace trigen::scoring

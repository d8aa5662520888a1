#pragma once
/// \file generic.hpp
/// \brief Order-agnostic scoring primitives.
///
/// The paper's objective functions are defined for any interaction order k
/// (Eq. 1 sums over I = 3^k genotype combinations).  These span-based
/// implementations back both the 27-cell triplet scorers and the pairwise
/// (9-cell) extension module.

#include <cmath>
#include <span>

#include "trigen/scoring/k2.hpp"
#include "trigen/scoring/mutual_information.hpp"  // mutual_information_cells

namespace trigen::scoring {

/// K2 score (Eq. 1) over parallel control/case cell arrays of any length.
/// Lower is better.
inline double k2_score_cells(const LogFactorialTable& logfact,
                             std::span<const std::uint32_t> controls,
                             std::span<const std::uint32_t> cases) {
  double score = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    score += logfact(controls[i] + cases[i] + 1) - logfact(controls[i]) -
             logfact(cases[i]);
  }
  return score;
}

/// Pearson X^2 over cell arrays of any length.  Higher is better.
inline double chi_squared_cells(std::span<const std::uint32_t> controls,
                                std::span<const std::uint32_t> cases) {
  double n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    n0 += controls[i];
    n1 += cases[i];
  }
  const double n = n0 + n1;
  if (n == 0.0) return 0.0;
  double stat = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const double row = static_cast<double>(controls[i]) + cases[i];
    if (row == 0.0) continue;
    const double e0 = row * n0 / n;
    const double e1 = row * n1 / n;
    if (e0 > 0.0) {
      const double d = controls[i] - e0;
      stat += d * d / e0;
    }
    if (e1 > 0.0) {
      const double d = cases[i] - e1;
      stat += d * d / e1;
    }
  }
  return stat;
}

}  // namespace trigen::scoring

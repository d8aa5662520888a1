#include "trigen/scoring/mutual_information.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace trigen::scoring {

// This file is compiled with floating-point contraction off (see
// CMakeLists.txt): a fused `h -= p * log(p)` would round once where the
// table stores the rounded product, and the scores would depend on the
// target's FMA support.

double mutual_information_cells(std::span<const std::uint32_t> controls,
                                std::span<const std::uint32_t> cases) {
  double n = 0.0, n0 = 0.0, n1 = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    n0 += controls[i];
    n1 += cases[i];
  }
  n = n0 + n1;
  if (n == 0.0) return 0.0;

  double h_c = 0.0;
  if (n0 > 0.0) h_c -= n0 / n * std::log(n0 / n);
  if (n1 > 0.0) h_c -= n1 / n * std::log(n1 / n);

  double h_g = 0.0, h_gc = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const double j0 = controls[i] / n;
    const double j1 = cases[i] / n;
    const double marg = j0 + j1;
    if (marg > 0.0) h_g -= marg * std::log(marg);
    if (j0 > 0.0) h_gc -= j0 * std::log(j0);
    if (j1 > 0.0) h_gc -= j1 * std::log(j1);
  }
  return h_g + h_c - h_gc;
}

namespace {

double xlogx(double x) { return x > 0.0 ? x * std::log(x) : 0.0; }

}  // namespace

MutualInformationTable::MutualInformationTable(std::uint32_t num_samples)
    : num_samples_(num_samples),
      entries_(static_cast<std::size_t>(num_samples) + 1) {
  const double n = num_samples;
  for (std::size_t c = 0; c < entries_.size(); ++c) {
    Entry& e = entries_[c];
    e.q = num_samples == 0 ? 0.0 : static_cast<double>(c) / n;
    // An empty cell's marginal is exactly 0, so at c = 0 only the middle
    // value is ever read.
    e.xlogx[0] = xlogx(std::nextafter(e.q, 0.0));
    e.xlogx[1] = xlogx(e.q);
    e.xlogx[2] =
        xlogx(std::nextafter(e.q, std::numeric_limits<double>::infinity()));
  }
}

double MutualInformationTable::operator()(
    std::span<const std::uint32_t> controls,
    std::span<const std::uint32_t> cases) const {
  std::uint64_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    n0 += controls[i];
    n1 += cases[i];
  }
  if (n0 + n1 != num_samples_) {
    return mutual_information_cells(controls, cases);
  }

  // Subtracting an empty class's or cell's stored +0.0 leaves the sum as
  // the reference's skipped term does, -0.0 included.
  const Entry* e = entries_.data();
  double h_c = 0.0;
  h_c -= e[n0].xlogx[1];
  h_c -= e[n1].xlogx[1];
  double h_g = 0.0, h_gc = 0.0;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const std::uint32_t c0 = controls[i];
    const std::uint32_t c1 = cases[i];
    const Entry& m = e[c0 + c1];
    const double marg = e[c0].q + e[c1].q;
    const std::int64_t d = std::bit_cast<std::int64_t>(marg) -
                           std::bit_cast<std::int64_t>(m.q);
    if (d >= -1 && d <= 1) {
      h_g -= m.xlogx[d + 1];
    } else {
      h_g -= marg * std::log(marg);
    }
    h_gc -= e[c0].xlogx[1];
    h_gc -= e[c1].xlogx[1];
  }
  return h_g + h_c - h_gc;
}

}  // namespace trigen::scoring

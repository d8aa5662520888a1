#pragma once
/// Shared helpers for the trigen test suite.

#include <bit>
#include <cstdint>
#include <ostream>
#include <tuple>

#include "trigen/common/rng.hpp"
#include "trigen/dataset/genotype_matrix.hpp"
#include "trigen/dataset/synthetic.hpp"

namespace trigen::test {

/// Bitwise double equality: "bit for bit", not within a tolerance.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Dataset shape used in parameterized suites: (snps, samples, seed).
/// Sample counts straddle the 32-bit word boundary and the 512-bit padding
/// boundary so every padding path is exercised.
using Shape = std::tuple<std::size_t, std::size_t, std::uint64_t>;

inline const std::vector<Shape>& small_shapes() {
  static const std::vector<Shape> shapes = {
      {4, 7, 1},     // tiny, single partial word
      {5, 32, 2},    // exactly one word
      {6, 33, 3},    // one word + 1 bit
      {8, 100, 4},   // partial second word
      {10, 512, 5},  // exactly one padded plane (16 words)
      {12, 513, 6},  // padded plane + 1 bit
      {16, 200, 7},  // mid-size
      {20, 64, 8},   // two exact words
  };
  return shapes;
}

/// Unbalanced and balanced random datasets for a shape.
inline dataset::GenotypeMatrix random_dataset(const Shape& s,
                                              double prevalence = 0.5) {
  dataset::SyntheticSpec spec;
  spec.num_snps = std::get<0>(s);
  spec.num_samples = std::get<1>(s);
  spec.seed = std::get<2>(s);
  spec.prevalence = prevalence;
  return dataset::generate(spec);
}

/// Dataset with a strongly detectable planted triple at (1, 3, 5).
inline dataset::GenotypeMatrix planted_dataset(std::size_t snps,
                                               std::size_t samples,
                                               std::uint64_t seed) {
  dataset::SyntheticSpec spec;
  spec.num_snps = snps;
  spec.num_samples = samples;
  spec.seed = seed;
  spec.maf_min = 0.3;
  spec.maf_max = 0.5;
  spec.prevalence = 0.25;
  dataset::PlantedInteraction planted;
  planted.snps = {1, 3, 5};
  planted.penetrance = dataset::make_penetrance(
      dataset::InteractionModel::kXor3, 0.05, 0.85);
  spec.interaction = planted;
  return dataset::generate(spec);
}

}  // namespace trigen::test

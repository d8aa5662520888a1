#pragma once
/// \file common.hpp
/// \brief Shared types of the benchmark binary: workload specs, output
/// checks, process resource probes and per-repetition timings.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/genotype_matrix.hpp"

namespace perfbench {

enum class Kind { kScan, kPermutation };

/// Every workload runs order 3.
constexpr unsigned kOrder = 3;

/// One workload: a generated panel and the public call that solves it.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::size_t snps;
  std::size_t samples;
  trigen::core::Objective objective;
  std::size_t top_k;
  bool plant;            ///< plant a threshold triplet at seed-chosen SNPs
  unsigned permutations; ///< Kind::kPermutation only
  /// Size of the fixed rank sub-range [0, probe_ranks) used by the V1
  /// cross-check and by the traced run's ladder/scaling/shard/batch probes.
  std::uint64_t probe_ranks;
};

/// The workload's scan options: library defaults (version, ISA, tiling, no
/// tune profile) except objective, top-k and thread count.
template <unsigned K>
trigen::core::BasicDetectorOptions<K> detector_options(const WorkloadSpec& w,
                                                       unsigned threads) {
  trigen::core::BasicDetectorOptions<K> o;
  o.objective = w.objective;
  o.threads = threads;
  o.top_k = w.top_k;
  return o;
}

/// Generator parameters shared by every workload.
struct GeneratorParams {
  double maf_min = 0.2;
  double maf_max = 0.5;
  double prevalence = 0.5;
  double plant_baseline = 0.2;
  double plant_effect = 0.6;
};

/// Counts every output check; a failed one is also reported on stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool quiet = false;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (!quiet) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// Bitwise double equality ("bit for bit", not within a tolerance).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// User + system CPU seconds consumed by this process so far.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident memory of this process, in MiB.
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One repetition of a workload, from dataset file to final text.
struct Rep {
  double read_s = 0, build_s = 0, solve_s = 0, emit_s = 0;
  double cpu_s = 0;
  double solve_cpu_s = 0;  ///< CPU seconds of the solve phase alone
  std::uint64_t combinations = 0;
  std::uint64_t elements = 0;
  std::string text;  ///< the final CSV or significance report

  double setup_s() const { return read_s + build_s; }
  double wall_s() const { return read_s + build_s + solve_s + emit_s; }
};

/// The resolved scan configuration reported next to the metrics.
struct ResolvedConfig {
  std::string version;
  std::string isa;
  std::size_t bs = 0;
  std::size_t bp_words = 0;
  unsigned threads = 0;
};

}  // namespace perfbench

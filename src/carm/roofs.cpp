#include "trigen/carm/roofs.hpp"

#include <algorithm>

#include "roofs_detail.hpp"
#include "trigen/common/aligned.hpp"
#include "trigen/common/cpuid.hpp"
#include "trigen/common/stopwatch.hpp"

// This TU is compiled portably; the vector micro-probes live in
// roofs_avx2.cpp / roofs_avx512.cpp (per-file ISA flags) and are entered
// only after cpu_features() confirms the host supports them — the same
// compile-in-everything / dispatch-at-runtime design as the core kernels.

namespace trigen::carm {

double CarmRoofs::scalar_peak() const {
  for (const auto& r : compute) {
    if (r.name == "scalar-add") return r.intops_per_s;
  }
  return 0.0;
}

double CarmRoofs::vector_peak() const {
  double best = 0.0;
  for (const auto& r : compute) best = std::max(best, r.intops_per_s);
  return best;
}

double CarmRoofs::bandwidth(const std::string& level) const {
  for (const auto& r : memory) {
    if (r.level == level) return r.bytes_per_s;
  }
  return 0.0;
}

namespace {

/// Keeps the optimizer from discarding the probe loops.
void sink(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

}  // namespace

double measure_load_bandwidth(std::size_t bytes) {
  const std::size_t words = std::max<std::size_t>(bytes / 8, 64);
  aligned_vector<std::uint64_t> buf(words, 0x5555555555555555ull);

  // Enough sweeps that one measurement lasts >= ~5 ms even from L1.
  const std::size_t sweep_bytes = words * 8;
  const std::size_t reps =
      std::max<std::size_t>(1, (1u << 26) / std::max<std::size_t>(1, sweep_bytes));

  std::uint64_t acc = 0;
  const double secs = time_best_of([&] {
#if defined(TRIGEN_KERNEL_AVX2)
    if (cpu_features().avx2) {
      acc += detail::load_sweeps_avx2(buf.data(), words, reps);
      return;
    }
#endif
    for (std::size_t r = 0; r < reps; ++r) {
      const std::uint64_t* p = buf.data();
      for (std::size_t i = 0; i < words; ++i) acc |= p[i];
      sink(&acc);
    }
  });
  sink(&acc);
  return static_cast<double>(sweep_bytes) * static_cast<double>(reps) / secs;
}

double measure_scalar_add_peak() {
  // Four independent chains; the loop is add-throughput bound.
  constexpr std::uint64_t kIters = 1u << 22;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  const double secs = time_best_of([&] {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      a += i;
      b += a;
      c += i;
      d += c;
      asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
    }
  });
  // 4 adds per iteration, each counted as one 32-bit-class intop (the CARM
  // scalar roof of Fig. 2 is per-instruction).
  return 4.0 * static_cast<double>(kIters) / secs;
}

double measure_vector_add_peak(unsigned* lanes_out) {
  // Four independent chains of `kIters` adds per call, as in the scalar
  // probe.
  constexpr std::uint64_t kIters = 1u << 20;
  [[maybe_unused]] const auto peak = [&](unsigned lanes,
                                         void (*adds)(std::uint64_t)) {
    if (lanes_out != nullptr) *lanes_out = lanes;
    const double secs = time_best_of([&] { adds(kIters); });
    return 4.0 * lanes * static_cast<double>(kIters) / secs;
  };
#if defined(TRIGEN_KERNEL_AVX512)
  if (cpu_features().avx512f) return peak(16, &detail::vector_adds_avx512);
#endif
#if defined(TRIGEN_KERNEL_AVX2)
  if (cpu_features().avx2) return peak(8, &detail::vector_adds_avx2);
#endif
  if (lanes_out != nullptr) *lanes_out = 1;
  return measure_scalar_add_peak();
}

CarmRoofs measure_roofs() {
  CarmRoofs roofs;
  for (const auto& level : detect_memory_levels()) {
    roofs.memory.push_back(
        {level.name, measure_load_bandwidth(level.probe_bytes)});
  }
  roofs.compute.push_back({"scalar-add", measure_scalar_add_peak()});
  unsigned lanes = 1;
  const double vec = measure_vector_add_peak(&lanes);
  roofs.compute.push_back(
      {lanes >= 16 ? "avx512-add" : (lanes >= 8 ? "avx2-add" : "scalar-add2"),
       vec});
  return roofs;
}

}  // namespace trigen::carm

#pragma once
/// \file layers.hpp
/// \brief Per-layer probes of the traced run (--trace 1).
///
/// Every traced run reports the same per-layer metric set, each measured on
/// the workload's own panel.  The batched engine is probed over
/// perm3-batched's whole rank space, which that workload runs end to end;
/// every other probe runs over the fixed sub-range [0, probe_ranks).  Byte and operation counts of the kernel
/// families are computed from their per-word instruction mix, not measured.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "helpers.hpp"
#include "trigen/carm/characterize.hpp"
#include "trigen/carm/memory_levels.hpp"
#include "trigen/carm/roofs.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/blocked_engine.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/topk.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/result_io.hpp"
#include "trigen/shard/runner.hpp"
#include "trigen/stats/permutation.hpp"

namespace perfbench {

/// What the traced run hands to the probes.
struct LayerInputs {
  const WorkloadSpec& w;
  std::uint64_t seed;
  unsigned threads;
  std::string dataset_path;
  std::uint64_t dataset_bytes;
  std::string workdir;
  Tracer* tracer;
  const std::vector<Rep>* untraced;
  const std::vector<Rep>* traced;
  Checks* checks;
};

namespace layers_detail {

using namespace trigen;

inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Calls of `f` per second: the best of three batches of at least `min_s`.
template <typename F>
double calls_per_s(F&& f, double min_s = 0.02) {
  std::size_t n = 1;
  double dt = 0;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) f();
    dt = now_s() - t0;
    if (dt >= min_s) break;
    n *= 2;
  }
  double best = static_cast<double>(n) / dt;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) f();
    best = std::max(best, static_cast<double>(n) / (now_s() - t0));
  }
  return best;
}

/// Computed per-word cost of one kernel call: integer ops (AND/OR/XOR/NOT
/// and POPCNT each count one) and bytes loaded or stored (32-bit words).
struct KernelCost {
  double ops = 0;
  double bytes = 0;
};

struct Roofs {
  double l1_bytes_per_s = 0;
  double mem_bytes_per_s = 0;
  double scalar_ops_per_s = 0;
  double vector_ops_per_s = 0;
};

/// One kernel family measured at one ISA: words/s, GOPS and the fraction
/// of the binding CARM roof (per core, L1 bandwidth roof: the probe planes
/// are L1-resident).
inline void report_kernel(MetricSet& m, const std::string& family,
                          const std::string& tag, double words_per_s,
                          const KernelCost& cost, const Roofs& roofs,
                          bool scalar) {
  const double gops = words_per_s * cost.ops / 1e9;
  const double ai = cost.ops / cost.bytes;
  const double compute = scalar ? roofs.scalar_ops_per_s : roofs.vector_ops_per_s;
  const double attainable = std::min(compute, ai * roofs.l1_bytes_per_s);
  const std::string base = "kernel." + family + "." + tag;
  m.set(base + ".words_per_s", words_per_s, "word/s");
  m.set(base + ".gops", gops, "Gop/s");
  m.set(base + ".roof_frac", gops * 1e9 / attainable, "ratio");
}

/// Microbenchmarks the seven kernel families on planes of the workload's
/// own panel, at the resolved ISA ("best") and at scalar.
template <unsigned K>
void kernel_layers(const LayerInputs& in, const dataset::GenotypeMatrix& d,
                   const core::BasicDetector<K>& det, const Roofs& roofs,
                   MetricSet& m) {
  const auto& p = det.planes_split();
  const std::size_t words = p.words(0);
  const auto pl = [&](std::size_t snp, int g) { return p.plane(0, snp, g); };

  const dataset::PhenoSplitPlanes combined = dataset::PhenoSplitPlanes::build_combined(d);
  const std::size_t cwords = combined.words(0);
  std::vector<std::vector<dataset::Phenotype>> parts(
      1, std::vector<dataset::Phenotype>(d.phenotypes().begin(), d.phenotypes().end()));
  SplitMix64 seeds(in.seed + 1);
  for (unsigned i = 0; i < 32; ++i) parts.push_back(stats::shuffled_labels(d, seeds.next()));
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  const double labels = static_cast<double>(batch.size());

  const gpusim::OpMix direct = carm::cpu_op_mix(core::CpuVersion::kV4Vector);
  const gpusim::OpMix cached = carm::cpu_op_mix(core::CpuVersion::kV5PairCache);
  const KernelCost costs[] = {
      {direct.popcnt + direct.logic, direct.loads * 4},  // triple_block
      // x2/y2 by NOR (2 ops each), 9 ANDs, 9 POPCNTs; 4 loads, 9 stores.
      {22, 13 * 4},                                      // pair_plane_build
      {cached.popcnt + cached.logic, cached.loads * 4},  // triple_block_cached
      // 9 prefixes x (2 AND + 2 XOR + 3 POPCNT); x (3 loads + 3 stores).
      {9 * 7, 9 * 6 * 4},                                // prefix_extend
      // 27 prefixes x (2 AND + 2 POPCNT); x 3 loads.
      {27 * 4, 27 * 3 * 4},                              // prefix_final
      // 9 prefixes x P labels x (AND + POPCNT); x (1 + P) loads.
      {9 * 2 * labels, 9 * (1 + labels) * 4},            // batch_label_pops
      // 9 prefixes x (1 + P) tables x (2 AND + 2 POPCNT); x (3 + P) loads.
      {9 * 4 * (1 + labels), 9 * (3 + labels) * 4},      // batch_final
  };
  const char* families[] = {"triple_block",  "pair_plane_build",
                            "triple_block_cached", "prefix_extend",
                            "prefix_final",  "batch_label_pops",
                            "batch_final"};
  for (std::size_t f = 0; f < 7; ++f) {
    m.set(std::string("kernel.") + families[f] + ".ai_computed",
          costs[f].ops / costs[f].bytes, "op/B");
  }

  const std::pair<const char*, core::KernelIsa> isas[] = {
      {"best", core::best_kernel_isa()}, {"scalar", core::KernelIsa::kScalar}};
  for (const auto& [tag, isa] : isas) {
    ScopedSpan span(*in.tracer, std::string("probe.kernel.") + tag);
    const bool scalar = isa == core::KernelIsa::kScalar;
    const auto tb = core::get_kernel(isa);
    const auto cs = core::get_cached_kernels(isa);
    const auto gs = core::get_generic_kernels(isa);
    const auto bk = core::get_batch_kernels(isa);
    std::uint32_t ft[81] = {};
    const double n = static_cast<double>(words);
    const double nc = static_cast<double>(cwords);

    double r = calls_per_s([&] {
      tb(pl(0, 0), pl(0, 1), pl(1, 0), pl(1, 1), pl(2, 0), pl(2, 1), 0, words, ft);
      clobber(ft);
    });
    report_kernel(m, families[0], tag, r * n, costs[0], roofs, scalar);

    core::PrefixPlaneCache cache;
    cache.ensure(4, words);
    r = calls_per_s([&] {
      std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
      cs.build(pl(0, 0), pl(0, 1), pl(1, 0), pl(1, 1), 0, words, cache.rung(2),
               cache.stride(), cache.rung_pops(2));
      clobber(cache.rung(2));
    });
    report_kernel(m, families[1], tag, r * n, costs[1], roofs, scalar);

    r = calls_per_s([&] {
      cs.cached(cache.rung(2), cache.stride(), cache.rung_pops(2), pl(2, 0),
                pl(2, 1), 0, words, ft);
      clobber(ft);
    });
    report_kernel(m, families[2], tag, r * n, costs[2], roofs, scalar);

    r = calls_per_s([&] {
      std::fill(cache.rung_pops(3), cache.rung_pops(3) + 27, 0u);
      gs.extend(cache.rung(2), 9, cache.stride(), pl(2, 0), pl(2, 1), 0, words,
                cache.rung(3), cache.stride(), cache.rung_pops(3));
      clobber(cache.rung(3));
    });
    report_kernel(m, families[3], tag, r * n, costs[3], roofs, scalar);

    r = calls_per_s([&] {
      gs.finalize(cache.rung(3), 27, cache.stride(), cache.rung_pops(3), pl(3, 0),
                  pl(3, 1), 0, words, ft);
      clobber(ft);
    });
    report_kernel(m, families[4], tag, r * n, costs[4], roofs, scalar);

    // Batch kernels run on the phenotype-agnostic (combined) planes.
    core::PrefixPlaneCache ccache;
    ccache.ensure(3, cwords);
    std::fill(ccache.rung_pops(2), ccache.rung_pops(2) + 9, 0u);
    cs.build(combined.plane(0, 0, 0), combined.plane(0, 0, 1), combined.plane(0, 1, 0),
             combined.plane(0, 1, 1), 0, cwords, ccache.rung(2), ccache.stride(),
             ccache.rung_pops(2));
    std::vector<std::uint32_t> label_pops(9 * batch.stride());
    std::vector<std::uint32_t> bft((1 + batch.size()) * 27);
    r = calls_per_s([&] {
      std::fill(label_pops.begin(), label_pops.end(), 0u);
      bk.label_pops(ccache.rung(2), 9, ccache.stride(), batch.word_labels(),
                    batch.size(), batch.stride(), 0, cwords, label_pops.data());
      clobber(label_pops.data());
    });
    report_kernel(m, families[5], tag, r * nc, costs[5], roofs, scalar);

    r = calls_per_s([&] {
      bk.finalize(ccache.rung(2), 9, ccache.stride(), ccache.rung_pops(2),
                  label_pops.data(), combined.plane(0, 2, 0), combined.plane(0, 2, 1),
                  batch.word_labels(), batch.size(), batch.stride(), 0, cwords,
                  bft.data(), 27);
      clobber(bft.data());
    });
    report_kernel(m, families[6], tag, r * nc, costs[6], roofs, scalar);
  }
}

/// The CARM roofs of this host.  carm::measure_roofs() sizes its DRAM probe
/// at 8x the last-level cache, which is gigabytes on hosts with large
/// shared L3s, so the same probes are composed here with the memory probe
/// capped at 64 MiB.
inline Roofs carm_layers(Tracer& t, MetricSet& m) {
  ScopedSpan span(t, "probe.carm");
  Roofs r;
  const auto levels = carm::detect_memory_levels();
  r.l1_bytes_per_s = carm::measure_load_bandwidth(levels.front().probe_bytes);
  r.mem_bytes_per_s = carm::measure_load_bandwidth(std::size_t{64} << 20);
  r.scalar_ops_per_s = carm::measure_scalar_add_peak();
  r.vector_ops_per_s = carm::measure_vector_add_peak();
  m.set("carm.l1_gbps", r.l1_bytes_per_s / 1e9, "GB/s");
  m.set("carm.mem_gbps", r.mem_bytes_per_s / 1e9, "GB/s");
  m.set("carm.scalar_gops", r.scalar_ops_per_s / 1e9, "Gop/s");
  m.set("carm.vector_gops", r.vector_ops_per_s / 1e9, "Gop/s");
  return r;
}

template <unsigned K>
combinatorics::RankRange probe_range(const LayerInputs& in) {
  const std::uint64_t total = combinatorics::n_choose_k(in.w.snps, K);
  return {0, std::min(total, in.w.probe_ranks)};
}

/// The paper's Fig. 3 rungs plus V4 pinned to the scalar strategy, on the
/// probe range.
template <unsigned K>
void ladder_layers(const LayerInputs& in, const core::BasicDetector<K>& det,
                   MetricSet& m) {
  ScopedSpan span(*in.tracer, "probe.ladder");
  struct Rung {
    const char* name;
    core::CpuVersion v;
    bool scalar;
  };
  const Rung rungs[] = {{"v1", core::CpuVersion::kV1Naive, false},
                        {"v2", core::CpuVersion::kV2Split, false},
                        {"v3", core::CpuVersion::kV3Blocked, false},
                        {"v4", core::CpuVersion::kV4Vector, false},
                        {"v5", core::CpuVersion::kV5PairCache, false},
                        {"v4_scalar", core::CpuVersion::kV4Vector, true}};
  for (const Rung& r : rungs) {
    auto o = detector_options<K>(in.w, in.threads);
    o.version = r.v;
    o.range = probe_range<K>(in);
    if (r.scalar) {
      o.isa = core::KernelIsa::kScalar;
      o.isa_auto = false;
    }
    const double t0 = now_s();
    const auto res = det.run(o);
    const double dt = now_s() - t0;
    m.set(std::string("ladder.") + r.name + ".gel_per_s",
          static_cast<double>(res.elements) / dt / 1e9, "Gel/s");
  }
}

/// Scorers over tables precomputed with detector.contingency, the top-k
/// push, and colex rank/unrank.  Returns ns/table of the workload's own
/// objective.
template <unsigned K>
double scoring_layers(const LayerInputs& in, const core::BasicDetector<K>& det,
                    MetricSet& m) {
  ScopedSpan span(*in.tracer, "probe.scoring");
  const std::uint64_t total = combinatorics::n_choose_k(in.w.snps, K);
  const std::uint64_t n = std::min<std::uint64_t>(total, 2048);
  std::vector<scoring::BasicContingencyTable<K>> tables;
  for (std::uint64_t r = 0; r < n; ++r) {
    tables.push_back(det.contingency(combinatorics::unrank_combination<K>(r)));
  }
  const auto samples = static_cast<std::uint32_t>(det.num_samples());
  const std::pair<const char*, core::Objective> objs[] = {
      {"k2", core::Objective::kK2},
      {"mi", core::Objective::kMutualInformation},
      {"chi2", core::Objective::kChiSquared}};
  double own_ns = 0;
  for (const auto& [name, obj] : objs) {
    const auto scorer = core::make_normalized_scorer_of<K>(obj, samples);
    double sink = 0;
    const double per_s = calls_per_s([&] {
      for (const auto& t : tables) sink += scorer(t);
      clobber(&sink);
    });
    const double ns = 1e9 / (per_s * static_cast<double>(tables.size()));
    m.set(std::string("scoring.") + name + ".ns_per_table", ns, "ns");
    if (obj == in.w.objective) own_ns = ns;
  }

  // Pushes of uniformly random scores into a top-10 (most are rejected at
  // the heap top, as in a scan).
  std::vector<core::ScoredOf<K>> entries;
  Xoshiro256 rng(in.seed);
  const std::uint64_t pushes = std::min<std::uint64_t>(total, 1u << 16);
  for (std::uint64_t r = 0; r < pushes; ++r) {
    entries.push_back(core::make_scored<K>(
        combinatorics::unrank_combination<K>(r),
        rng.uniform()));
  }
  double per_s = calls_per_s([&] {
    core::BasicTopK<core::ScoredOf<K>> top(10);
    for (const auto& e : entries) top.push(e);
    clobber(&top);
  });
  m.set("topk.ns_per_push", 1e9 / (per_s * static_cast<double>(entries.size())), "ns");

  std::vector<combinatorics::Combination<K>> combos(pushes);
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / pushes);
  per_s = calls_per_s([&] {
    for (std::uint64_t r = 0; r < pushes; ++r) {
      combos[r] = combinatorics::unrank_combination<K>(r * stride);
    }
    clobber(combos.data());
  });
  m.set("combinatorics.unrank_ns", 1e9 / (per_s * static_cast<double>(pushes)), "ns");
  std::uint64_t acc = 0;
  per_s = calls_per_s([&] {
    for (const auto& c : combos) acc += combinatorics::rank_combination<K>(c);
    clobber(&acc);
  });
  m.set("combinatorics.rank_ns", 1e9 / (per_s * static_cast<double>(pushes)), "ns");
  return own_ns;
}

inline void percentile_metrics(MetricSet& m, const std::string& base,
                               const std::vector<double>& v, const char* unit) {
  const auto p50 = reportable_percentile(v, 0.5);
  const auto p95 = reportable_percentile(v, 0.95);
  if (!p50 || !p95) {
    throw std::runtime_error(base + ": too few samples for p95 (" +
                             std::to_string(v.size()) + ")");
  }
  m.set(base + ".p50", p50->value, unit);
  m.set(base + ".p95", p95->value, unit);
  m.set(base + ".samples", static_cast<double>(p95->samples), "count");
}

/// Equal split of `r` into `n` contiguous parts, by the formula
/// shard::plan_shards uses for SplitStrategy::kEvenRanks over a whole space.
inline std::vector<combinatorics::RankRange> split(combinatorics::RankRange r,
                                                   unsigned n) {
  std::vector<combinatorics::RankRange> out;
  for (unsigned i = 0; i < n; ++i) {
    out.push_back({r.first + r.size() * i / n, r.first + r.size() * (i + 1) / n});
  }
  return out;
}

struct CoreSample {
  double seconds = 0, cpu_s = 0;
  std::uint64_t combinations = 0, elements = 0;
};

/// The checkpointed shard path, four shards over the probe range run in
/// turn through run_shard_of with a checkpoint file and the default
/// cadence, their result files written, read back and merged; against a
/// bare run() over the same ranges.
template <unsigned K>
void shard_layers(const LayerInputs& in, const dataset::GenotypeMatrix& d,
                  const core::BasicDetector<K>& det, MetricSet& m) {
  using Scored = core::ScoredOf<K>;
  namespace fs = std::filesystem;
  Tracer& t = *in.tracer;
  ScopedSpan span(t, "probe.shard");
  const auto parts = split(probe_range<K>(in), 4);
  const auto opt = detector_options<K>(in.w, in.threads);
  const std::uint64_t fp = shard::dataset_fingerprint(d);
  const auto path = [&](std::size_t i, const char* ext) {
    return in.workdir + "/probe-" + std::to_string(i) + ext;
  };

  double bare_s = 0;
  core::BasicTopK<Scored> bare_top(opt.top_k);
  {
    ScopedSpan s(t, "probe.shard.bare_run");
    const double t0 = now_s();
    for (const auto& r : parts) {
      auto o = opt;
      o.range = r;
      for (const auto& e : det.run(o).best) bare_top.push(e);
    }
    bare_s = now_s() - t0;
  }

  std::vector<double> chunk_s;
  std::vector<shard::BasicShardResult<Scored>> results;
  double run_s = 0, io_s = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    fs::remove(path(i, ".ckpt"));
    shard::BasicShardRunOptions<core::BasicDetectorOptions<K>> so;
    so.detector = opt;
    so.range = parts[i];
    so.checkpoint_path = path(i, ".ckpt");
    double chunk_start = now_s();
    so.keep_going = [&](std::uint64_t, std::uint64_t) {
      const double now = now_s();
      chunk_s.push_back(now - chunk_start);
      t.add("shard.chunk", chunk_start, now);
      chunk_start = now;
      return true;
    };
    const double t0 = now_s();
    shard::BasicShardRunReport<Scored> rep;
    {
      ScopedSpan s(t, "shard.run");
      rep = shard::run_shard_of<K>(det, fp, so);
      const double now = now_s();
      chunk_s.push_back(now - chunk_start);
      t.add("shard.chunk", chunk_start, now);
    }
    run_s += now_s() - t0;
    in.checks->expect(rep.completed, "probe shard ran to completion");
    const double t1 = now_s();
    ScopedSpan s(t, "shard.result_io");
    shard::write_shard_result_file(path(i, ".shard"), rep.result);
    io_s += now_s() - t1;
  }
  const double t1 = now_s();
  {
    ScopedSpan s(t, "shard.result_io");
    for (std::size_t i = 0; i < parts.size(); ++i) {
      results.push_back(shard::read_shard_result_file_as<Scored>(path(i, ".shard")));
    }
  }
  io_s += now_s() - t1;
  const double t2 = now_s();
  shard::MergedScanOf<K> merged;
  {
    ScopedSpan s(t, "shard.merge");
    merged = shard::merge_shards_of<K>(results, shard::MergeCoverage::kContiguous);
  }
  const double merge_s = now_s() - t2;
  const auto expect = bare_top.sorted();
  bool same = merged.result.best.size() == expect.size();
  for (std::size_t i = 0; same && i < expect.size(); ++i) {
    same = core::snps_of<K>(merged.result.best[i]) == core::snps_of<K>(expect[i]) &&
           same_bits(merged.result.best[i].score, expect[i].score);
  }
  in.checks->expect(same, "probe shard merge equals bare run() over the same ranges");

  // write_checkpoint_file alone, on a checkpoint the size of a real one.
  shard::BasicCheckpoint<Scored> ckpt;
  ckpt.fingerprint = fp;
  ckpt.num_snps = d.num_snps();
  ckpt.num_samples = d.num_samples();
  ckpt.objective = results.front().objective;
  ckpt.top_k = results.front().top_k;
  ckpt.range = results.front().range;
  ckpt.watermark = results.front().range.last;
  ckpt.entries = results.front().entries;
  std::vector<double> write_ms;
  {
    ScopedSpan s(t, "shard.ckpt_write");
    for (int i = 0; i < 200; ++i) {
      const double w0 = now_s();
      shard::write_checkpoint_file(path(0, ".wckpt"), ckpt);
      write_ms.push_back((now_s() - w0) * 1e3);
    }
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    fs::remove(path(i, ".ckpt"));
    fs::remove(path(i, ".shard"));
  }
  fs::remove(path(0, ".wckpt"));

  m.set("shard.run_s", run_s, "s");
  m.set("shard.overhead_x", run_s / bare_s, "ratio");
  m.set("shard.chunks", static_cast<double>(chunk_s.size()), "count");
  percentile_metrics(m, "shard.chunk_s", chunk_s, "s");
  percentile_metrics(m, "shard.ckpt_write_ms", write_ms, "ms");
  m.set("shard.result_io_s", io_s, "s");
  m.set("shard.merge_s", merge_s, "s");
}

/// Label shuffles and one batched pass over 1 + 32 partitions.
template <unsigned K>
CoreSample stats_layers(const LayerInputs& in, const dataset::GenotypeMatrix& d,
                        const core::BasicDetector<K>& det, MetricSet& m) {
  ScopedSpan span(*in.tracer, "probe.stats");
  const bool whole = in.w.kind == Kind::kPermutation;
  std::vector<std::vector<dataset::Phenotype>> parts(
      1, std::vector<dataset::Phenotype>(d.phenotypes().begin(), d.phenotypes().end()));
  double t0 = now_s();
  {
    ScopedSpan s(*in.tracer, "stats.shuffle");
    SplitMix64 seeds(in.seed + 1);
    for (unsigned i = 0; i < 32; ++i) {
      parts.push_back(stats::shuffled_labels(d, seeds.next()));
    }
  }
  m.set("stats.shuffle_s", now_s() - t0, "s");

  auto o = detector_options<K>(in.w, in.threads);
  o.top_k = 1;
  if (!whole) o.range = probe_range<K>(in);
  CoreSample s;
  const double cpu0 = process_cpu_s();
  t0 = now_s();
  core::BasicBatchDetectionResult<K> res;
  {
    ScopedSpan span2(*in.tracer, "stats.batch_run");
    const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
    res = det.run_batched(batch, o);
  }
  s.seconds = now_s() - t0;
  s.cpu_s = process_cpu_s() - cpu0;
  s.combinations = res.combinations_evaluated;
  s.elements = res.combinations_evaluated * d.num_samples() * parts.size();
  m.set("stats.batch_run_s", s.seconds, "s");

  const auto plain = det.run(o).best.front();
  in.checks->expect(core::snps_of<K>(plain) == core::snps_of<K>(res.best[0].front()) &&
                        same_bits(plain.score, res.best[0].front().score),
                    "batched partition 0 equals run() over the same range");
  return s;
}

inline std::vector<double> self_times(const Tracer& t, const std::string& name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    if (t.spans()[i].name == name) out.push_back(self_time(t.spans(), i));
  }
  return out;
}

}  // namespace layers_detail

/// Every per-layer metric of the traced run, on the workload's own panel.
template <unsigned K>
void measure_layers(const LayerInputs& in, MetricSet& m) {
  using namespace layers_detail;
  const dataset::GenotypeMatrix d = dataset::read_binary_file(in.dataset_path);
  const core::BasicDetector<K> det(d);
  const Tracer& t = *in.tracer;
  const auto& traced = *in.traced;
  const auto& untraced = *in.untraced;

  // Set-up layers and tracing overhead, from the traced repetitions.
  const double read_s = median(self_times(t, "dataset.read"));
  m.set("dataset.read_s", read_s, "s");
  m.set("dataset.read_mb_per_s", static_cast<double>(in.dataset_bytes) / 1e6 / read_s,
        "MB/s");
  m.set("core.build_s", median(self_times(t, "core.build")), "s");
  const auto walls = [](const std::vector<Rep>& reps) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.wall_s());
    return median(v);
  };
  m.set("trace.wall_s", walls(traced), "s");
  m.set("trace.overhead_s", walls(traced) - walls(untraced), "s");

  const Roofs roofs = carm_layers(*in.tracer, m);
  kernel_layers<K>(in, d, det, roofs, m);
  ladder_layers<K>(in, det, m);
  shard_layers<K>(in, d, det, m);
  const CoreSample batch_core = stats_layers<K>(in, d, det, m);

  // The engine's solve phase: the traced scans themselves, the batched
  // pass on perm3-batched.
  CoreSample core = batch_core;
  if (in.w.kind == Kind::kScan) {
    core.seconds = median(self_times(t, "core.run"));
    std::vector<double> cpu;
    for (const Rep& r : traced) cpu.push_back(r.solve_cpu_s);
    core.cpu_s = median(cpu);
    core.combinations = traced.front().combinations;
    core.elements = traced.front().elements;
  }
  m.set("core.run_s", core.seconds, "s");
  m.set("core.combinations", static_cast<double>(core.combinations), "count");
  m.set("core.elements", static_cast<double>(core.elements), "count");
  m.set("core.cpu_util", core.cpu_s / (core.seconds * in.threads), "ratio");

  {
    ScopedSpan span(*in.tracer, "probe.scaling");
    auto o = detector_options<K>(in.w, in.threads);
    o.range = probe_range<K>(in);
    o.threads = 1;
    double t0 = now_s();
    det.run(o);
    const double one = now_s() - t0;
    o.threads = in.threads;
    t0 = now_s();
    det.run(o);
    const double many = now_s() - t0;
    m.set("core.scaling_eff", one / (many * in.threads), "ratio");
  }

  const double ns = scoring_layers<K>(in, det, m);
  const double tables = static_cast<double>(core.elements) / static_cast<double>(d.num_samples());
  m.set("scoring.share", tables * ns * 1e-9 / (core.seconds * in.threads), "ratio");
}

}  // namespace perfbench

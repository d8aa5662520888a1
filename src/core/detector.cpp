#include "trigen/core/detector.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/scheduler.hpp"
#include "trigen/common/stopwatch.hpp"
#include "trigen/core/scan_driver.hpp"
#include "trigen/scoring/chi_squared.hpp"
#include "trigen/scoring/generic.hpp"
#include "trigen/scoring/k2.hpp"
#include "trigen/scoring/mutual_information.hpp"

namespace trigen::core {

using combinatorics::Combination;
using combinatorics::RankRange;
using scoring::ContingencyTable;

std::string cpu_version_name(CpuVersion v) {
  switch (v) {
    case CpuVersion::kV1Naive: return "V1-naive";
    case CpuVersion::kV2Split: return "V2-split";
    case CpuVersion::kV3Blocked: return "V3-blocked";
    case CpuVersion::kV4Vector: return "V4-vector";
    case CpuVersion::kV5PairCache: return "V5-paircache";
  }
  return "unknown";
}

std::optional<CpuVersion> cpu_version_from_number(std::uint64_t n) {
  constexpr CpuVersion kByNumber[] = {
      CpuVersion::kV1Naive, CpuVersion::kV2Split, CpuVersion::kV3Blocked,
      CpuVersion::kV4Vector, CpuVersion::kV5PairCache};
  if (n == 0 || n > std::size(kByNumber)) return std::nullopt;
  return kByNumber[n - 1];
}

namespace {

/// Both spellings of every objective, defined once.
struct ObjectiveSpelling {
  Objective objective;
  const char* token;  ///< scan vocabulary (objective_token)
  const char* name;   ///< file spelling (objective_name)
};
constexpr ObjectiveSpelling kObjectiveSpellings[] = {
    {Objective::kK2, "k2", "k2"},
    {Objective::kMutualInformation, "mi", "mutual-information"},
    {Objective::kChiSquared, "chi2", "chi-squared"},
};

}  // namespace

std::string objective_name(Objective o) {
  for (const ObjectiveSpelling& s : kObjectiveSpellings) {
    if (s.objective == o) return s.name;
  }
  return "unknown";
}

std::string objective_token(Objective o) {
  for (const ObjectiveSpelling& s : kObjectiveSpellings) {
    if (s.objective == o) return s.token;
  }
  return "unknown";
}

Objective parse_objective(const std::string& token) {
  std::string valid;
  for (const ObjectiveSpelling& s : kObjectiveSpellings) {
    if (token == s.token) return s.objective;
    valid += valid.empty() ? "" : "|";
    valid += s.token;
  }
  throw std::invalid_argument("unknown objective '" + token + "' (" + valid +
                              ")");
}

template <unsigned K>
struct BasicDetector<K>::Impl {
  std::size_t num_snps;
  std::size_t num_samples;
  dataset::BitPlanesV1 v1;
  dataset::PhenoSplitPlanes split;
  /// Phenotype-agnostic layout (class 0 = all samples, original order) for
  /// run_batched; the per-partition split happens against PhenotypeBatch
  /// label planes instead of a baked-in phenotype.
  dataset::PhenoSplitPlanes combined;
};

template <unsigned K>
BasicDetector<K>::BasicDetector(const dataset::GenotypeMatrix& d)
    : impl_(std::make_unique<Impl>(Impl{
          d.num_snps(),
          d.num_samples(),
          dataset::BitPlanesV1::build(d),
          dataset::PhenoSplitPlanes::build(d),
          dataset::PhenoSplitPlanes::build_combined(d),
      })) {
  if (d.num_snps() < K) {
    throw std::invalid_argument("Detector: need at least " +
                                std::to_string(K) + " SNPs");
  }
  if (!d.valid()) {
    throw std::invalid_argument("Detector: dataset contains invalid values");
  }
}

template <unsigned K>
BasicDetector<K>::~BasicDetector() = default;

template <unsigned K>
std::size_t BasicDetector<K>::num_snps() const { return impl_->num_snps; }
template <unsigned K>
std::size_t BasicDetector<K>::num_samples() const {
  return impl_->num_samples;
}
template <unsigned K>
const dataset::BitPlanesV1& BasicDetector<K>::planes_v1() const {
  return impl_->v1;
}
template <unsigned K>
const dataset::PhenoSplitPlanes& BasicDetector<K>::planes_split() const {
  return impl_->split;
}

std::function<double(const ContingencyTable&)> make_normalized_scorer(
    Objective o, std::uint32_t num_samples) {
  switch (o) {
    case Objective::kK2: {
      auto k2 = std::make_shared<scoring::K2Score>(num_samples);
      return [k2](const ContingencyTable& t) { return (*k2)(t); };
    }
    case Objective::kMutualInformation: {
      auto mi = std::make_shared<scoring::MutualInformationTable>(num_samples);
      return [mi](const ContingencyTable& t) { return -(*mi)(t); };
    }
    case Objective::kChiSquared:
      return [chi = scoring::ChiSquared{}](const ContingencyTable& t) {
        return -chi(t);
      };
  }
  throw std::invalid_argument("unknown objective");
}

template <unsigned K>
std::function<double(const scoring::BasicContingencyTable<K>&)>
make_normalized_scorer_of(Objective o, std::uint32_t num_samples) {
  if constexpr (K == 3) {
    return make_normalized_scorer(o, num_samples);
  } else {
    using Table = scoring::BasicContingencyTable<K>;
    switch (o) {
      case Objective::kK2: {
        auto logfact =
            std::make_shared<scoring::LogFactorialTable>(num_samples + 1);
        return [logfact](const Table& t) {
          return scoring::k2_score_cells(*logfact, t.counts[0], t.counts[1]);
        };
      }
      case Objective::kMutualInformation: {
        auto mi =
            std::make_shared<scoring::MutualInformationTable>(num_samples);
        return [mi](const Table& t) { return -(*mi)(t); };
      }
      case Objective::kChiSquared:
        return [](const Table& t) {
          return -scoring::chi_squared_cells(t.counts[0], t.counts[1]);
        };
    }
    throw std::invalid_argument("unknown objective");
  }
}

// Zero-padded genotype planes contribute nothing, so no pad correction.
template <unsigned K>
scoring::BasicContingencyTable<K> contingency_v1_of(
    const dataset::BitPlanesV1& p, const Combination<K>& s) {
  scoring::BasicContingencyTable<K> t;
  const Word* pheno = p.phenotype_plane();
  for (std::size_t cell = 0; cell < scoring::num_cells(K); ++cell) {
    std::array<const Word*, K> g;
    std::size_t rem = cell;
    for (unsigned i = K; i-- > 0;) {
      g[i] = p.plane(s[i], static_cast<int>(rem % 3));
      rem /= 3;
    }
    std::uint32_t ctrl = 0;
    std::uint32_t cases = 0;
    for (std::size_t w = 0; w < p.words(); ++w) {
      Word v = g[0][w];
      for (unsigned i = 1; i < K; ++i) v &= g[i][w];
      cases += static_cast<std::uint32_t>(std::popcount(v & pheno[w]));
      ctrl += static_cast<std::uint32_t>(std::popcount(v & ~pheno[w]));
    }
    t.counts[0][cell] = ctrl;
    t.counts[1][cell] = cases;
  }
  return t;
}

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// V2 evaluation at any order: the order's direct leaf kernel over the
/// full sample range of each class, with the padding correction.
template <unsigned K>
scoring::BasicContingencyTable<K> contingency_split_of(
    const dataset::PhenoSplitPlanes& p, const Combination<K>& s,
    const EngineKernels& kernels) {
  scoring::BasicContingencyTable<K> t;
  std::array<const Word*, K> g0;
  std::array<const Word*, K> g1;
  for (int c = 0; c < 2; ++c) {
    for (unsigned i = 0; i < K; ++i) {
      g0[i] = p.plane(c, s[i], 0);
      g1[i] = p.plane(c, s[i], 1);
    }
    auto& row = t.counts[static_cast<std::size_t>(c)];
    kernels.direct<K>(g0, g1, 0, p.words(c), row.data());
    // NOR padding shows up as phantom all-genotype-2 observations.
    row.back() -= static_cast<std::uint32_t>(p.pad_bits(c));
  }
  return t;
}

/// What run() and run_batched() resolve before scanning.
template <unsigned K>
struct ScanPlan {
  KernelIsa isa = KernelIsa::kScalar;
  RankRange range;
  /// `range` when it is a strict sub-range, else kFullRange (no clipping).
  RankRange clip = kFullRange;
  std::function<double(const scoring::BasicContingencyTable<K>&)> scorer;
  ScanConfig cfg;
};

/// The preamble shared by run() and run_batched(): ISA resolution and
/// availability, the top-k check, the rank range, the scorer and the
/// ScanConfig.  `vector_isa` marks the vector rungs (V4, V5 and
/// the batched engine), which default to the widest available strategy;
/// V1 and V3 are scalar by definition, and V2 honors an explicitly
/// requested ISA (the heterogeneous coordinator pairs the per-combination
/// path with a vector kernel).
template <unsigned K>
ScanPlan<K> plan_scan(const BasicDetectorOptions<K>& options, bool vector_isa,
                      std::size_t num_snps, std::size_t num_samples) {
  ScanPlan<K> plan;
  if (vector_isa) {
    plan.isa = options.isa_auto ? best_kernel_isa() : options.isa;
  } else if (options.version == CpuVersion::kV2Split && !options.isa_auto) {
    plan.isa = options.isa;
  }
  if (!kernel_available(plan.isa)) {
    throw std::runtime_error("requested kernel ISA not available: " +
                             kernel_isa_name(plan.isa));
  }
  if (options.top_k == 0) {
    throw std::invalid_argument("DetectorOptions::top_k must be >= 1");
  }

  const std::uint64_t total = combinatorics::n_choose_k(num_snps, K);
  plan.range = options.range;
  if (plan.range.empty()) plan.range = {0, total};
  if (plan.range.last > total) {
    throw std::invalid_argument("DetectorOptions::range exceeds the space");
  }
  if (plan.range.first != 0 || plan.range.last != total) {
    plan.clip = plan.range;
  }

  plan.scorer = options.scorer ? options.scorer
                               : make_normalized_scorer_of<K>(
                                     options.objective,
                                     static_cast<std::uint32_t>(num_samples));

  plan.cfg.threads = resolve_threads(options.threads);
  plan.cfg.chunk_size = options.chunk_size;
  plan.cfg.progress = options.progress;
  plan.cfg.progress_total = plan.range.size();
  return plan;
}

}  // namespace

template <unsigned K>
scoring::BasicContingencyTable<K> contingency_split_of(
    const dataset::PhenoSplitPlanes& p, const Combination<K>& snps,
    KernelIsa isa) {
  return contingency_split_of<K>(p, snps, EngineKernels::of(isa));
}

template <unsigned K>
scoring::BasicContingencyTable<K> BasicDetector<K>::contingency(
    const Combination<K>& snps, KernelIsa isa) const {
  for (unsigned i = 0; i < K; ++i) {
    if (snps[i] >= impl_->num_snps || (i > 0 && snps[i] <= snps[i - 1])) {
      throw std::out_of_range("Detector::contingency: bad SNP indices");
    }
  }
  return contingency_split_of<K>(impl_->split, snps, isa);
}

template <unsigned K>
BasicDetectionResult<K> BasicDetector<K>::run(
    const BasicDetectorOptions<K>& options) const {
  using Scored = ScoredOf<K>;
  const bool cached = options.version == CpuVersion::kV5PairCache;
  const bool vector_version =
      options.version == CpuVersion::kV4Vector || cached;
  const ScanPlan<K> plan = plan_scan<K>(options, vector_version,
                                        impl_->num_snps, impl_->num_samples);
  const auto& scorer = plan.scorer;
  const ScanConfig& cfg = plan.cfg;
  const EngineKernels kernels = EngineKernels::of(plan.isa);

  BasicDetectionResult<K> result;
  result.threads_used = cfg.threads;
  result.isa_used = plan.isa;
  result.combinations_evaluated = plan.range.size();
  result.elements = plan.range.size() * impl_->num_samples;

  // One shared driver runs every version: it owns the fork/join, the
  // per-thread TopK accumulators, the throttled progress callback and the
  // deterministic rank-ordered merge.  The versions only differ in how a
  // scheduled work unit maps to combinations.
  Stopwatch sw;
  BasicTopK<Scored> merged(options.top_k);
  const bool blocked =
      options.version == CpuVersion::kV3Blocked || vector_version;
  if (!blocked) {
    // V1/V2: work unit = one combination rank inside the range.
    const bool naive = options.version == CpuVersion::kV1Naive;
    merged = scan_best<Scored>(
        plan.range.size(), cfg, options.top_k,
        [&](unsigned, RankRange r, BasicTopK<Scored>& top) -> std::uint64_t {
          combinatorics::for_each_combination<K>(
              plan.range.first + r.first, plan.range.first + r.last,
              [&](const Combination<K>& c) {
                const scoring::BasicContingencyTable<K> table =
                    naive ? contingency_v1_of<K>(impl_->v1, c)
                          : contingency_split_of<K>(impl_->split, c, kernels);
                top.push(make_scored<K>(c, scorer(table)));
              });
          return r.size();
        });
    result.tiling_used = TilingParams{0, 0};
  } else {
    // V3/V4/V5: work unit = one block tuple of the partition covering the
    // range; emitted combinations are clipped to the range at the
    // partition boundary (interior blocks pay no per-combination
    // overhead).  V5 autotunes with its own ladder model.
    TilingParams tiling = options.tiling;
    if (!tiling.valid()) {
      tiling = scan_tiling(detect_l1_config(), K, options.version, plan.isa,
                           impl_->num_snps, plan.range, cfg.threads);
    }
    result.tiling_used = tiling;
    const combinatorics::BlockPartition part =
        combinatorics::partition_block_tuples<K>(
            combinatorics::BlockGrid{impl_->num_snps, tiling.bs}, plan.range);
    // Per-thread scratch is constructed lazily by the worker that owns it,
    // not here on the submitting thread, and its walk zero-fills the table
    // and prefix-plane-cache pages on first use, so on NUMA hosts they land
    // on the scanning thread's node.
    std::vector<std::unique_ptr<TupleBlockScratch<K>>> scratch(cfg.threads);
    const auto scan_blocks = [&](auto&& scan_block) {
      return scan_best<Scored>(
          part.block_ranks.size(), cfg, options.top_k,
          [&](unsigned tid, RankRange r,
              BasicTopK<Scored>& top) -> std::uint64_t {
            auto& sc = scratch[tid];
            if (!sc) sc = std::make_unique<TupleBlockScratch<K>>(tiling.bs);
            std::uint64_t emitted = 0;
            const auto on_table =
                [&](const Combination<K>& c,
                    const scoring::BasicContingencyTable<K>& t) {
                  ++emitted;
                  top.push(make_scored<K>(c, scorer(t)));
                };
            for (std::uint64_t b = r.first; b < r.last; ++b) {
              scan_block(impl_->split, tiling, kernels, *sc,
                         unrank_block_tuple<K>(part.block_ranks.first + b),
                         plan.clip, on_table);
            }
            return emitted;
          });
    };
    merged = cached ? scan_blocks([](auto&&... a) {
                        scan_block_tuple_ladder<K>(a...);
                      })
                    : scan_blocks([](auto&&... a) {
                        scan_block_tuple<K>(a...);
                      });
  }
  result.seconds = sw.seconds();
  result.best = merged.sorted();
  return result;
}

template <unsigned K>
BasicBatchDetectionResult<K> BasicDetector<K>::run_batched(
    const dataset::PhenotypeBatch& batch,
    const BasicDetectorOptions<K>& options) const {
  using Scored = ScoredOf<K>;
  if (batch.num_samples() != impl_->num_samples) {
    throw std::invalid_argument(
        "run_batched: batch and dataset sample counts differ");
  }
  const ScanPlan<K> plan =
      plan_scan<K>(options, true, impl_->num_snps, impl_->num_samples);
  const auto& scorer = plan.scorer;
  const ScanConfig& cfg = plan.cfg;
  const EngineKernels kernels = EngineKernels::of(plan.isa);
  const std::size_t slots = batch.size();

  BasicBatchDetectionResult<K> result;
  result.threads_used = cfg.threads;
  result.isa_used = plan.isa;
  result.combinations_evaluated = plan.range.size();
  result.elements = plan.range.size() * impl_->num_samples * slots;

  // Always the V5 ladder walk (the whole point is amortizing it), on V5's
  // tile, with the B_S groups of one prefix live; each holds 1 + P tables,
  // so B_S is capped by kBatchTableBytes (the pair walk keeps one group).
  TilingParams tiling = options.tiling;
  if (!tiling.valid()) {
    tiling = scan_tiling(detect_l1_config(), K, CpuVersion::kV5PairCache,
                         plan.isa, impl_->num_snps, plan.range, cfg.threads);
    if (K >= 3) {
      const std::size_t group_bytes = (1 + slots) * pow3(K) * 4;
      tiling.bs = std::clamp<std::size_t>(kBatchTableBytes / group_bytes, 1,
                                          tiling.bs);
    }
  }
  result.tiling_used = tiling;
  const combinatorics::BlockPartition part =
      combinatorics::partition_block_tuples<K>(
          combinatorics::BlockGrid{impl_->num_snps, tiling.bs}, plan.range);

  // Lazily constructed by the owning worker (NUMA first touch, as in run()).
  std::vector<std::unique_ptr<TupleBlockScratch<K>>> scratch(cfg.threads);

  Stopwatch sw;
  // One TopK per partition per thread; the per-partition merge keeps each
  // ranking deterministic (score-then-rank tie-break) and independent.
  std::vector<std::vector<BasicTopK<Scored>>> per_thread(
      cfg.threads,
      std::vector<BasicTopK<Scored>>(slots, BasicTopK<Scored>(options.top_k)));
  parallel_scan(
      part.block_ranks.size(), cfg, per_thread,
      [&](unsigned tid, RankRange r,
          std::vector<BasicTopK<Scored>>& acc) -> std::uint64_t {
        auto& sc = scratch[tid];
        if (!sc) {
          sc = std::make_unique<TupleBlockScratch<K>>(tiling.bs, 1 + slots);
        }
        std::uint64_t emitted = 0;
        const auto on_table =
            [&](const Combination<K>& c, std::size_t p,
                const scoring::BasicContingencyTable<K>& t) {
              if (p == 0) ++emitted;  // combinations, not tables
              acc[p].push(make_scored<K>(c, scorer(t)));
            };
        for (std::uint64_t b = r.first; b < r.last; ++b) {
          scan_block_tuple_batched<K>(
              impl_->combined, batch, tiling, kernels, *sc,
              unrank_block_tuple<K>(part.block_ranks.first + b), plan.clip,
              on_table);
        }
        return emitted;
      });
  result.seconds = sw.seconds();
  result.best.resize(slots);
  for (std::size_t p = 0; p < slots; ++p) {
    BasicTopK<Scored> merged(options.top_k);
    for (const auto& th : per_thread) merged.merge(th[p]);
    result.best[p] = merged.sorted();
  }
  return result;
}

template scoring::BasicContingencyTable<2> contingency_v1_of<2>(
    const dataset::BitPlanesV1&, const Combination<2>&);
template scoring::BasicContingencyTable<2> contingency_split_of<2>(
    const dataset::PhenoSplitPlanes&, const Combination<2>&, KernelIsa);
template scoring::BasicContingencyTable<3> contingency_v1_of<3>(
    const dataset::BitPlanesV1&, const Combination<3>&);
template scoring::BasicContingencyTable<3> contingency_split_of<3>(
    const dataset::PhenoSplitPlanes&, const Combination<3>&, KernelIsa);
template scoring::BasicContingencyTable<4> contingency_v1_of<4>(
    const dataset::BitPlanesV1&, const Combination<4>&);
template scoring::BasicContingencyTable<4> contingency_split_of<4>(
    const dataset::PhenoSplitPlanes&, const Combination<4>&, KernelIsa);
template scoring::BasicContingencyTable<5> contingency_v1_of<5>(
    const dataset::BitPlanesV1&, const Combination<5>&);
template scoring::BasicContingencyTable<5> contingency_split_of<5>(
    const dataset::PhenoSplitPlanes&, const Combination<5>&, KernelIsa);
template scoring::BasicContingencyTable<6> contingency_v1_of<6>(
    const dataset::BitPlanesV1&, const Combination<6>&);
template scoring::BasicContingencyTable<6> contingency_split_of<6>(
    const dataset::PhenoSplitPlanes&, const Combination<6>&, KernelIsa);

template class BasicDetector<2>;
template class BasicDetector<3>;
template class BasicDetector<4>;
template class BasicDetector<5>;
template class BasicDetector<6>;

template std::function<double(const scoring::BasicContingencyTable<2>&)>
make_normalized_scorer_of<2>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<3>&)>
make_normalized_scorer_of<3>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<4>&)>
make_normalized_scorer_of<4>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<5>&)>
make_normalized_scorer_of<5>(Objective, std::uint32_t);
template std::function<double(const scoring::BasicContingencyTable<6>&)>
make_normalized_scorer_of<6>(Objective, std::uint32_t);

}  // namespace trigen::core

/// \file bench.cpp
/// \brief The trigen benchmark binary: one workload per invocation, from a
/// generated dataset file on disk to the final result text.
///
///   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
///                 --workdir DIR
///
/// The dataset is generated from --seed and written to DIR before any
/// timing starts.  It then repeats the user's path — read the file,
/// build the detector, solve, render the CSV or significance report — for
/// --seconds (at least three times), checks every repetition's outputs, and
/// prints one JSON line {"correct", "attempted", "failed", "metrics"}.
/// With --trace 0 the metrics are the end-to-end medians; with --trace 1
/// the repetitions are recorded as spans (alternating with untraced ones
/// to measure the tracing overhead) and followed by the per-layer probes
/// of layers.hpp.  Exit status: 0 when every check passed, 1 when one
/// failed, 2 on bad arguments.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "helpers.hpp"
#include "layers.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/rng.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/stats/permutation.hpp"
#include "trigen/stats/report.hpp"

namespace perfbench {
namespace {

using namespace trigen;
namespace fs = std::filesystem;

constexpr std::size_t kMinReps = 3;
// After each repetition, set-up alone is sampled for this share of the
// repetition's time, after one unrecorded warm-up sample, so every setup_s
// sample is taken in the same (warm) state and the samples span the run.
constexpr double kSetupShare = 0.1;

// Panels are sized so one repetition takes about 2 s on a 4-core
// AVX-512 host; see BENCHMARK.json for why each workload exists.
const WorkloadSpec kWorkloads[] = {
    {"scan3-wide", Kind::kScan, 400, 8192, core::Objective::kK2, 10, true, 0,
     200000},
    {"scan3-narrow-mi", Kind::kScan, 340, 128,
     core::Objective::kMutualInformation, 10, false, 0, 400000},
    {"perm3-batched", Kind::kPermutation, 170, 2048, core::Objective::kK2, 1,
     true, 32, 200000},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
};

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + '\n';
  return out;
}

/// Three distinct SNPs chosen by the seed, ascending.
std::array<std::size_t, 3> planted_snps(std::size_t snps, std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0x5eedu);
  std::set<std::size_t> picked;
  while (picked.size() < 3) picked.insert(rng.next() % snps);
  std::array<std::size_t, 3> out{};
  std::copy(picked.begin(), picked.end(), out.begin());
  return out;
}

dataset::GenotypeMatrix generate(const WorkloadSpec& w, std::uint64_t seed,
                                 const GeneratorParams& g) {
  dataset::SyntheticSpec spec;
  spec.num_snps = w.snps;
  spec.num_samples = w.samples;
  spec.maf_min = g.maf_min;
  spec.maf_max = g.maf_max;
  spec.prevalence = g.prevalence;
  spec.seed = seed;
  if (w.plant) {
    spec.interaction = dataset::PlantedInteraction{
        planted_snps(w.snps, seed),
        dataset::make_penetrance(dataset::InteractionModel::kThreshold,
                                 g.plant_baseline, g.plant_effect)};
  }
  return dataset::generate(spec);
}

/// Everything one invocation shares between its repetitions.
struct Context {
  const WorkloadSpec& w;
  Args args;
  unsigned threads;
  std::string dataset_path;
  std::uint64_t dataset_bytes = 0;
  Checks checks{};
  ResolvedConfig config{};
  /// The result text every repetition must reproduce: the fresh-process
  /// repetition's output.
  std::string reference_text{};
  /// perm3-batched: the observed best of a plain run() and the best of
  /// run() on the first two shuffle_phenotypes() nulls.
  core::ScoredTriplet plain_observed{};
  std::vector<double> plain_nulls{};
};

stats::BasicPermutationTestOptions<3> permutation_options(const Context& c) {
  stats::BasicPermutationTestOptions<3> o;
  o.permutations = c.w.permutations;
  o.seed = c.args.seed + 1;
  o.batch = 0;
  o.detector = detector_options<kOrder>(c.w, c.threads);
  return o;
}

ResolvedConfig resolved(const core::ScanStats& s, core::CpuVersion v) {
  return {core::cpu_version_name(v), core::kernel_isa_name(s.isa_used),
          s.tiling_used.bs, s.tiling_used.bp_words, s.threads_used};
}

/// Every reported score must equal the scorer applied to the per-sample
/// reference table, bit for bit.
template <unsigned K>
void check_scores(Context& c, const core::BasicDetector<K>& det,
                  const std::vector<core::ScoredOf<K>>& best) {
  const auto scorer = core::make_normalized_scorer_of<K>(
      c.w.objective, static_cast<std::uint32_t>(det.num_samples()));
  c.checks.expect(!best.empty(), "result has entries");
  for (const auto& e : best) {
    const auto table = det.contingency(core::snps_of<K>(e), core::KernelIsa::kScalar);
    c.checks.expect(same_bits(scorer(table), e.score),
                    "top-k score equals the reference contingency score");
  }
}

/// read_binary_file + BasicDetector<K> construction, timed.
template <unsigned K>
struct Loaded {
  dataset::GenotypeMatrix d;
  std::unique_ptr<core::BasicDetector<K>> det;
};

template <unsigned K>
Loaded<K> load(const Context& c, Tracer& t, Rep& r) {
  Loaded<K> l;
  double t0 = now_s();
  {
    ScopedSpan s(t, "dataset.read");
    l.d = dataset::read_binary_file(c.dataset_path);
  }
  double t1 = now_s();
  {
    ScopedSpan s(t, "core.build");
    l.det = std::make_unique<core::BasicDetector<K>>(l.d);
  }
  r.read_s = t1 - t0;
  r.build_s = now_s() - t1;
  return l;
}

// ---------------------------------------------------------------------------
// One repetition per workload kind
// ---------------------------------------------------------------------------

template <unsigned K>
Rep scan_rep(Context& c, Tracer& t) {
  Rep r;
  const double cpu0 = process_cpu_s();
  ScopedSpan root(t, "rep");
  Loaded<K> l = load<K>(c, t, r);
  const auto opt = detector_options<K>(c.w, c.threads);
  double t0 = now_s();
  const double solve_cpu0 = process_cpu_s();
  core::BasicDetectionResult<K> res;
  {
    ScopedSpan s(t, "core.run");
    res = l.det->run(opt);
  }
  r.solve_cpu_s = process_cpu_s() - solve_cpu0;
  double t1 = now_s();
  {
    ScopedSpan s(t, "emit");
    r.text = join_lines(core::scan_csv_lines<K>(res.best));
  }
  r.solve_s = t1 - t0;
  r.emit_s = now_s() - t1;
  r.cpu_s = process_cpu_s() - cpu0;
  r.elements = res.elements;
  r.combinations = res.combinations_evaluated;

  check_scores<K>(c, *l.det, res.best);
  c.checks.expect(r.text == c.reference_text, "CSV equals the reference run");
  if (c.w.plant) {
    const auto p = planted_snps(c.w.snps, c.args.seed);
    const auto top = core::snps_of<K>(res.best.front());
    c.checks.expect(top[0] == p[0] && top[1] == p[1] && top[2] == p[2],
                    "planted triplet ranks first");
  }
  return r;
}

Rep permutation_rep(Context& c, Tracer& t) {
  Rep r;
  const double cpu0 = process_cpu_s();
  ScopedSpan root(t, "rep");
  Loaded<3> l = load<3>(c, t, r);
  const auto opt = permutation_options(c);
  double t0 = now_s();
  const double solve_cpu0 = process_cpu_s();
  stats::BasicPermutationTestResult<3> res;
  {
    ScopedSpan s(t, "stats.permutation_test");
    res = stats::permutation_test_of<3>(l.d, opt);
  }
  r.solve_cpu_s = process_cpu_s() - solve_cpu0;
  double t1 = now_s();
  {
    ScopedSpan s(t, "emit");
    r.text = join_lines(stats::significance_report<3>(res, opt.permutations));
  }
  r.solve_s = t1 - t0;
  r.emit_s = now_s() - t1;
  r.cpu_s = process_cpu_s() - cpu0;
  r.combinations = combinatorics::n_choose_k(c.w.snps, 3);
  r.elements = r.combinations * c.w.samples * (opt.permutations + 1);

  check_scores<3>(c, *l.det, {res.observed});
  c.checks.expect(r.text == c.reference_text,
                  "significance report equals the reference run");
  const auto& o = c.plain_observed;
  c.checks.expect(o.triplet.x == res.observed.triplet.x &&
                      o.triplet.y == res.observed.triplet.y &&
                      o.triplet.z == res.observed.triplet.z &&
                      same_bits(o.score, res.observed.score),
                  "batched observed best equals a plain run()");
  for (std::size_t p = 0; p < c.plain_nulls.size(); ++p) {
    c.checks.expect(same_bits(c.plain_nulls[p], res.null_scores[p]),
                    "batched null best equals run() on shuffle_phenotypes");
  }
  return r;
}

// ---------------------------------------------------------------------------
// References and run-level checks (outside the timing)
// ---------------------------------------------------------------------------

/// The resolved configuration, from a one-combination run.
template <unsigned K>
ResolvedConfig probe_config(const Context& c, const core::BasicDetector<K>& det) {
  auto opt = detector_options<K>(c.w, c.threads);
  opt.range = {0, 1};
  return resolved(det.run(opt), opt.version);
}

template <unsigned K>
void prepare_scan(Context& c, const dataset::GenotypeMatrix& d) {
  const core::BasicDetector<K> det(d);
  c.config = probe_config<K>(c, det);
  if (c.w.objective == core::Objective::kMutualInformation) {
    // The naive V1 rung over a fixed rank sub-range must reproduce the
    // default engine over the same range.
    auto sub = detector_options<K>(c.w, c.threads);
    sub.range = {0, std::min(c.w.probe_ranks, combinatorics::n_choose_k(c.w.snps, K))};
    const auto fast = det.run(sub);
    sub.version = core::CpuVersion::kV1Naive;
    const auto naive = det.run(sub);
    bool same = fast.best.size() == naive.best.size();
    for (std::size_t i = 0; same && i < fast.best.size(); ++i) {
      same = core::snps_of<K>(fast.best[i]) == core::snps_of<K>(naive.best[i]) &&
             same_bits(fast.best[i].score, naive.best[i].score);
    }
    c.checks.expect(same, "V1 over a rank sub-range matches the default engine");
  }
}

void prepare_permutation(Context& c, const dataset::GenotypeMatrix& d) {
  const auto opt = permutation_options(c);
  const core::BasicDetector<3> det(d);
  auto plain = opt.detector;
  plain.top_k = 1;
  c.plain_observed = det.run(plain).best.front();
  // The nulls are seeded from one SplitMix64 stream (permutation.hpp).
  SplitMix64 seeds(opt.seed);
  for (std::size_t p = 0; p < 2; ++p) {
    const core::BasicDetector<3> null_det(stats::shuffle_phenotypes(d, seeds.next()));
    c.plain_nulls.push_back(null_det.run(plain).best.front().score);
  }
  // The resolved configuration of the batched engine itself.
  std::vector<std::vector<dataset::Phenotype>> parts(
      opt.permutations + 1,
      std::vector<dataset::Phenotype>(d.phenotypes().begin(), d.phenotypes().end()));
  const auto batch = dataset::PhenotypeBatch::build(d.num_samples(), parts);
  auto tiny = plain;
  tiny.range = {0, 1};
  c.config = resolved(det.run_batched(batch, tiny), plain.version);
  c.config.version = "batched";
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

/// read_binary_file + BasicDetector construction alone, untraced.
double setup_sample(const Context& c) {
  Tracer off(false);
  Rep r;
  Loaded<kOrder> l = load<kOrder>(c, off, r);
  return r.setup_s();
}

Rep one_rep(Context& c, Tracer& t) {
  return c.w.kind == Kind::kScan ? scan_rep<kOrder>(c, t) : permutation_rep(c, t);
}

/// Peak RSS of one repetition in a fresh process, as a user's run would
/// see it (the benchmark process itself keeps references and allocator
/// caches around).  Must be called before this process starts threads.
/// Returns the child's peak in MiB and its result text.
std::pair<double, std::string> fresh_process_rep(Context& c) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    int status = 0;
    try {
      // The reference does not exist yet: the parent compares the text.
      c.checks.quiet = true;
      Tracer off(false);
      const Rep r = one_rep(c, off);
      out = json_number(peak_rss_mb()) + '\n' + r.text;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fresh-process rep: %s\n", e.what());
      status = 1;
    }
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(status);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      in.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::size_t nl = in.find('\n');
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || nl == std::string::npos) {
    throw std::runtime_error("fresh-process repetition failed");
  }
  return {std::stod(in.substr(0, nl)), in.substr(nl + 1)};
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

void end_to_end_metrics(const Context& c, const std::vector<Rep>& reps,
                        const std::vector<double>& setups, double rss_mb,
                        MetricSet& m) {
  m.set("setup_s", median(setups), "s");
  m.set("wall_s", median(collect(reps, [](const Rep& r) { return r.wall_s(); })), "s");
  m.set("gel_per_s", median(collect(reps, [](const Rep& r) {
          return static_cast<double>(r.elements) / r.solve_s / 1e9;
        })), "Gel/s");
  m.set("cpu_s", median(collect(reps, [](const Rep& r) { return r.cpu_s; })), "s");
  m.set("peak_rss_mb", rss_mb, "MiB");
  m.set("pass_rate",
        static_cast<double>(c.checks.attempted - c.checks.failed) /
            static_cast<double>(c.checks.attempted),
        "ratio");
}

void print_config(const Context& c, const GeneratorParams& g, std::size_t reps) {
  std::printf(
      "perfbench-config {\"workload\": \"%s\", \"seed\": %llu, \"order\": %u, "
      "\"snps\": %zu, \"samples\": %zu, \"objective\": \"%s\", \"top_k\": %zu, "
      "\"version\": \"%s\", \"isa\": \"%s\", \"bs\": %zu, \"bp_words\": %zu, "
      "\"threads\": %u, \"config_source\": \"analytic\", "
      "\"generator\": {\"maf_min\": %g, \"maf_max\": %g, \"prevalence\": %g, "
      "\"planted\": %s, \"model\": \"threshold\", \"baseline\": %g, "
      "\"effect\": %g}, \"permutations\": %u, \"reps\": %zu}\n",
      c.w.name, static_cast<unsigned long long>(c.args.seed), kOrder, c.w.snps,
      c.w.samples, core::objective_name(c.w.objective).c_str(), c.w.top_k,
      c.config.version.c_str(), c.config.isa.c_str(), c.config.bs,
      c.config.bp_words, c.config.threads, g.maf_min, g.maf_max, g.prevalence,
      c.w.plant ? "true" : "false", g.plant_baseline, g.plant_effect,
      c.w.permutations, reps);
}

/// One JSON line per span, with its self time.
void write_spans(const Tracer& t, const std::string& path) {
  std::ofstream os(path);
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start\": " << json_number(s.start)
       << ", \"end\": " << json_number(s.end) << ", \"parent\": " << s.parent
       << ", \"workload\": \"" << s.workload
       << "\", \"self_s\": " << json_number(self_time(spans, i)) << "}\n";
  }
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const GeneratorParams gen;
  Context c{*spec, args,
            std::max(1u, std::min(4u, std::thread::hardware_concurrency())),
            args.workdir + "/dataset.tgbin"};
  fs::create_directories(args.workdir);
  {
    const dataset::GenotypeMatrix d = generate(c.w, args.seed, gen);
    dataset::write_binary_file(c.dataset_path, d);
    c.dataset_bytes = fs::file_size(c.dataset_path);
  }
  // Forked while this process is still single-threaded and holds no
  // dataset, so the child's peak is the repetition's own.
  const auto [rss_mb, fresh_text] = fresh_process_rep(c);
  {
    const dataset::GenotypeMatrix d = dataset::read_binary_file(c.dataset_path);
    if (c.w.kind == Kind::kScan) {
      prepare_scan<kOrder>(c, d);
    } else {
      prepare_permutation(c, d);
    }
    c.reference_text = fresh_text;
  }

  MetricSet metrics;
  std::vector<Rep> reps;
  std::vector<double> setups;
  Tracer tracer(args.trace, c.w.name);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> traced;
  const double deadline = now_s() + budget;
  while (reps.size() < kMinReps || now_s() < deadline ||
         (args.trace && traced.size() < 2)) {
    Tracer off(false);
    reps.push_back(one_rep(c, off));
    std::fprintf(stderr, "perfbench: rep %zu wall %.4f s\n", reps.size(),
                 reps.back().wall_s());
    setup_sample(c);
    const double setup_until = now_s() + kSetupShare * reps.back().wall_s();
    do {
      setups.push_back(setup_sample(c));
    } while (now_s() < setup_until);
    if (args.trace) traced.push_back(one_rep(c, tracer));
  }

  if (!args.trace) {
    end_to_end_metrics(c, reps, setups, rss_mb, metrics);
  } else {
    LayerInputs in{c.w,          args.seed,       c.threads,   c.dataset_path,
                   c.dataset_bytes, args.workdir, &tracer,     &reps,
                   &traced,      &c.checks};
    measure_layers<kOrder>(in, metrics);
    write_spans(tracer,
                args.workdir + "/../trace-" + c.w.name + "-seed" +
                    std::to_string(args.seed) + ".jsonl");
  }
  print_config(c, gen, reps.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              c.checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(c.checks.attempted),
              static_cast<unsigned long long>(c.checks.failed),
              metrics.json().c_str());
  fs::remove(c.dataset_path);
  return c.checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  bool have_seed = false, have_seconds = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (k == "--trace") {
        a.trace = v == "1";
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        throw std::invalid_argument("unknown flag " + k);
      }
    }
    if (a.workload.empty() || !have_seed || !have_seconds || a.workdir.empty() ||
        a.seconds <= 0) {
      throw std::invalid_argument("missing flag");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_bin --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 e.what());
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

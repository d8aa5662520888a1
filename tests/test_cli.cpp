// Option validation of the `trigen` binary, driven as a subprocess: every
// subcommand rejects an option it does not read (exit 2, naming the option
// and the subcommand) before touching its inputs, accepts every option its
// own usage synopsis documents, and rejects a malformed order, version,
// range or objective value (exit 2) instead of running with a truncated
// or default one — as does the gwas_scan example.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace trigen {
namespace {

struct CliRun {
  int code = -1;
  std::string output;  // stdout and stderr, interleaved
};

/// Runs `binary` with `args` (none may contain a single quote).
CliRun run_binary(const std::string& binary,
                  const std::vector<std::string>& args) {
  std::string cmd = "'" + binary + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " 2>&1";
  CliRun r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.output.append(buf, n);
  const int status = ::pclose(p);
  if (status != -1 && WIFEXITED(status)) r.code = WEXITSTATUS(status);
  return r;
}

/// Runs the CLI with `args`.
CliRun run_cli(const std::vector<std::string>& args) {
  return run_binary(TRIGEN_CLI_PATH, args);
}

/// The `--key` names in the usage synopsis of `help`: the `usage:` line
/// and the indented lines that continue it, not the prose after them.
std::set<std::string> synopsis_options(const std::string& help) {
  std::istringstream in(help);
  std::string line, synopsis;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.rfind("usage:", 0) == 0) {
      inside = true;
    } else if (inside && line.rfind(" ", 0) != 0) {
      break;
    }
    if (inside) synopsis += line + "\n";
  }
  std::set<std::string> out;
  const std::regex flag("--([a-z][a-z0-9-]*)");
  for (auto it = std::sregex_iterator(synopsis.begin(), synopsis.end(), flag);
       it != std::sregex_iterator(); ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

// --------------------------------------------------------------------------
// Unknown options
// --------------------------------------------------------------------------

class CliUnknownOption : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    Subcommands, CliUnknownOption,
    ::testing::Values("generate", "info", "convert", "scan", "scan2", "merge",
                      "baseline", "significance", "serve", "coordinate",
                      "work", "devices"),
    param_name);

TEST_P(CliUnknownOption, ExitsTwoNamingTheOptionBeforeReadingInputs) {
  const std::string& sub = GetParam();
  // The dataset does not exist: exit 2 (not a load failure) shows the
  // option is rejected before any input is opened.
  const CliRun r = run_cli({sub, "no-such-dataset.tgb", "--objectve", "mi"});
  EXPECT_EQ(r.code, 2) << r.output;
  EXPECT_NE(r.output.find("trigen " + sub + ": unknown option --objectve"),
            std::string::npos)
      << r.output;
}

// --------------------------------------------------------------------------
// Options of the removed autotuner
// --------------------------------------------------------------------------

class CliRetiredTunerOption : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Subcommands, CliRetiredTunerOption,
                         ::testing::Values("scan", "scan2", "significance",
                                           "serve", "work"),
                         param_name);

TEST_P(CliRetiredTunerOption, ProfileIsRejected) {
  const std::string& sub = GetParam();
  const CliRun r = run_cli({sub, "no-such-dataset.tgb", "--profile", "x"});
  EXPECT_EQ(r.code, 2) << r.output;
  EXPECT_NE(r.output.find("trigen " + sub + ": unknown option --profile"),
            std::string::npos)
      << r.output;
}

// --------------------------------------------------------------------------
// Count-like options
// --------------------------------------------------------------------------

struct CountOption {
  const char* sub;
  const char* option;
};

void PrintTo(const CountOption& c, std::ostream* os) {
  *os << c.sub << " --" << c.option;
}

class CliNegativeCount : public ::testing::TestWithParam<CountOption> {};

INSTANTIATE_TEST_SUITE_P(
    Options, CliNegativeCount,
    ::testing::Values(CountOption{"generate", "snps"},
                      CountOption{"generate", "samples"},
                      CountOption{"scan", "top"},
                      CountOption{"scan", "threads"},
                      CountOption{"scan2", "top"},
                      CountOption{"scan2", "threads"},
                      CountOption{"baseline", "top"},
                      CountOption{"baseline", "threads"},
                      CountOption{"significance", "permutations"},
                      CountOption{"significance", "threads"},
                      CountOption{"significance", "batch"}),
    [](const ::testing::TestParamInfo<CountOption>& info) {
      return std::string(info.param.sub) + "_" + info.param.option;
    });

TEST_P(CliNegativeCount, ExitsTwoNamingTheOptionBeforeReadingInputs) {
  // A negative count must be a usage error, not a two's-complement wrap
  // into ~2^64 (all triplets for --top, bad_alloc for --threads).  The
  // path does not exist (for generate: its directory), so exit 2 shows the
  // value is rejected before any input is opened or output written.
  const CountOption& c = GetParam();
  const std::string option = std::string("--") + c.option;
  const CliRun r =
      run_cli({c.sub, "no-such-dir/no-such-dataset.tgb", option, "-1"});
  EXPECT_EQ(r.code, 2) << r.output;
  EXPECT_NE(r.output.find(option + " expects a non-negative integer"),
            std::string::npos)
      << r.output;
}

/// A 32-bit count option and the arguments its subcommand needs to reach
/// the option's parse without an input: the dataset path does not exist.
struct U32Option {
  const char* name;
  std::vector<std::string> args;
  const char* option;
};

void PrintTo(const U32Option& c, std::ostream* os) { *os << c.name; }

class CliCountBeyond32Bits : public ::testing::TestWithParam<U32Option> {};

INSTANTIATE_TEST_SUITE_P(
    Options, CliCountBeyond32Bits,
    ::testing::Values(
        U32Option{"scan_threads", {"scan"}, "threads"},
        U32Option{"scan2_threads", {"scan2"}, "threads"},
        U32Option{"baseline_threads", {"baseline"}, "threads"},
        U32Option{"significance_permutations", {"significance"},
                  "permutations"},
        U32Option{"significance_threads", {"significance"}, "threads"},
        U32Option{"significance_batch", {"significance"}, "batch"},
        U32Option{"serve_threads", {"serve"}, "threads"},
        U32Option{"coordinate_shards", {"coordinate", "--out", "x.csv"},
                  "shards"},
        U32Option{"coordinate_max_failures", {"coordinate", "--out", "x.csv"},
                  "max-failures"},
        U32Option{"work_threads", {"work", "--socket", "no-such.sock"},
                  "threads"}),
    [](const ::testing::TestParamInfo<U32Option>& info) {
      return std::string(info.param.name);
    });

TEST_P(CliCountBeyond32Bits, ExitsTwoNamingTheOptionBeforeReadingInputs) {
  // 2^32 once wrapped to 0 through an unsigned cast (for --threads: all
  // cores; for --permutations: a usage error about 0, not about 2^32).
  const U32Option& c = GetParam();
  const std::string option = std::string("--") + c.option;
  std::vector<std::string> args = c.args;
  args.insert(args.begin() + 1, "no-such-dir/no-such-dataset.tgb");
  args.push_back(option);
  args.push_back("4294967296");
  const CliRun r = run_cli(args);
  EXPECT_EQ(r.code, 2) << r.output;
  EXPECT_NE(r.output.find(option + " expects a value below 2^32"),
            std::string::npos)
      << r.output;
}

// --------------------------------------------------------------------------
// Malformed scan-vocabulary tokens
// --------------------------------------------------------------------------

/// A value the shared parsers must reject with exit 2 even when the input
/// is valid: a trailing byte, a wrapped order or an unknown objective may
/// not fall back to a default and run.
struct MalformedToken {
  const char* name;
  const char* binary;
  std::vector<std::string> args;  ///< "@data" is a generated dataset
  const char* message;
};

void PrintTo(const MalformedToken& m, std::ostream* os) { *os << m.name; }

std::vector<MalformedToken> malformed_tokens() {
  std::vector<MalformedToken> v = {
      {"scan_order_junk", TRIGEN_CLI_PATH,
       {"scan", "@data", "--order", "3junk"},
       "--order expects a non-negative integer"},
      {"scan_order_unsupported", TRIGEN_CLI_PATH,
       {"scan", "@data", "--order", "7"}, "unsupported order 7"},
      {"scan_version_junk", TRIGEN_CLI_PATH,
       {"scan", "@data", "--version", "5x"},
       "--version expects a non-negative integer"},
      {"scan_range_junk", TRIGEN_CLI_PATH,
       {"scan", "@data", "--range", "0:10junk"},
       "--range expects FIRST:LAST"},
      {"scan_shards_wraps", TRIGEN_CLI_PATH,
       {"scan", "@data", "--shards", "4294967296", "--shard", "0"},
       "--shards expects a value below 2^32"},
      {"scan_objective_unknown", TRIGEN_CLI_PATH,
       {"scan", "@data", "--objective", "foo"},
       "unknown objective 'foo' (k2|mi|chi2)"},
      {"significance_order_junk", TRIGEN_CLI_PATH,
       {"significance", "@data", "--order", "2x"},
       "--order expects a non-negative integer"},
      // 2^32 + 3 once wrapped to order 3 through an unsigned cast.
      {"coordinate_order_wraps", TRIGEN_CLI_PATH,
       {"coordinate", "no-such-dataset.tgb", "--out", "x.csv", "--order",
        "4294967299"},
       "unsupported order 4294967299"},
      // Shard flags are checked before the dataset is read: these name a
      // dataset that does not exist and must still fail on the flag.
      {"scan_split_unknown_before_load", TRIGEN_CLI_PATH,
       {"scan", "no-such-dataset.tgb", "--shards", "4", "--shard", "0",
        "--split", "blocks"},
       "--split expects even|block"},
      {"scan_shard_out_of_plan_before_load", TRIGEN_CLI_PATH,
       {"scan", "no-such-dataset.tgb", "--shards", "4", "--shard", "4"},
       "--shards W --shard I needs W >= 1 and 0 <= I < W"},
      {"coordinate_split_unknown", TRIGEN_CLI_PATH,
       {"coordinate", "no-such-dataset.tgb", "--out", "x.csv", "--split",
        "blocks"},
       "--split expects even|block"},
      // `--seed junk` once generated the `--seed 0` panel, and `--effect
      // abc` an all-control one.  The output directory does not exist, so
      // a parse that let them through would fail with exit 1, not 2.
      {"generate_seed_junk", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--snps", "5", "--samples", "10",
        "--seed", "junk"},
       "--seed expects a non-negative integer"},
      {"generate_seed_negative", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--seed", "-5"},
       "--seed expects a non-negative integer"},
      {"generate_effect_junk", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--plant", "0,1,2", "--model", "xor3",
        "--effect", "abc"},
       "--effect expects a finite number, got 'abc'"},
      {"generate_baseline_trailing_junk", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--baseline", "0.05x"},
       "--baseline expects a finite number, got '0.05x'"},
      {"generate_prevalence_nan", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--prevalence", "nan"},
       "--prevalence expects a finite number"},
      {"generate_maf_min_inf", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--maf-min", "-inf"},
       "--maf-min expects a finite number"},
      {"generate_maf_max_empty", TRIGEN_CLI_PATH,
       {"generate", "no-such-dir/x.tg", "--maf-max", " 0.5"},
       "--maf-max expects a finite number"},
      {"significance_seed_junk", TRIGEN_CLI_PATH,
       {"significance", "@data", "--seed", "7x"},
       "--seed expects a non-negative integer"},
  };
#ifdef TRIGEN_GWAS_SCAN_PATH
  v.push_back({"gwas_scan_objective_unknown", TRIGEN_GWAS_SCAN_PATH,
               {"@data", "--objective", "foo"},
               "unknown objective 'foo' (k2|mi|chi2)"});
  v.push_back({"gwas_scan_top_junk", TRIGEN_GWAS_SCAN_PATH,
               {"@data", "--top", "5x"},
               "--top expects a non-negative integer"});
#endif
  return v;
}

class CliMalformedToken : public ::testing::TestWithParam<MalformedToken> {
 protected:
  // One dataset per process: ctest runs every case as its own process,
  // in parallel, so a shared path would be read while another writes it.
  static void SetUpTestSuite() {
    data_ = ::testing::TempDir() + "/trigen_cli_tokens_" +
            std::to_string(::getpid()) + ".tg";
    const CliRun r = run_cli({"generate", data_, "--snps", "12", "--samples",
                              "64", "--seed", "3"});
    ASSERT_EQ(r.code, 0) << r.output;
  }
  static void TearDownTestSuite() { std::remove(data_.c_str()); }
  static std::string data_;
};

std::string CliMalformedToken::data_;

INSTANTIATE_TEST_SUITE_P(
    Tokens, CliMalformedToken, ::testing::ValuesIn(malformed_tokens()),
    [](const ::testing::TestParamInfo<MalformedToken>& info) {
      return std::string(info.param.name);
    });

TEST_P(CliMalformedToken, ExitsTwoNamingTheValue) {
  const MalformedToken& m = GetParam();
  std::vector<std::string> args = m.args;
  for (std::string& a : args) {
    if (a == "@data") a = data_;
  }
  const CliRun r = run_binary(m.binary, args);
  EXPECT_EQ(r.code, 2) << r.output;
  EXPECT_NE(r.output.find(m.message), std::string::npos) << r.output;
}

// --------------------------------------------------------------------------
// Block-split shard plans
// --------------------------------------------------------------------------

TEST(CliBlockSplit, ShardsPlannedWithDifferentFlagsMerge) {
  // Each shard of a --split block plan is planned by its own process: the
  // cut ranks may not depend on --threads or --version, or `merge` finds a
  // coverage gap or overlap.
  const std::string dir = ::testing::TempDir() + "/trigen_cli_block_split_" +
                          std::to_string(::getpid());
  const std::string data = dir + ".tg";
  ASSERT_EQ(run_cli({"generate", data, "--snps", "60", "--samples", "64",
                     "--seed", "5"})
                .code,
            0);
  const std::vector<std::vector<std::string>> shard_flags = {
      {"--threads", "1"},
      {"--threads", "3"},
      {"--threads", "2", "--version", "4"}};
  std::vector<std::string> merge_args = {"merge"};
  for (std::size_t i = 0; i < shard_flags.size(); ++i) {
    const std::string out = dir + "_" + std::to_string(i) + ".shard";
    std::vector<std::string> args = {
        "scan", data, "--shards", std::to_string(shard_flags.size()),
        "--shard", std::to_string(i), "--split", "block", "--out", out};
    args.insert(args.end(), shard_flags[i].begin(), shard_flags[i].end());
    const CliRun r = run_cli(args);
    ASSERT_EQ(r.code, 0) << r.output;
    merge_args.push_back(out);
  }
  const CliRun merged = run_cli(merge_args);
  EXPECT_EQ(merged.code, 0) << merged.output;
  const CliRun full = run_cli({"scan", data});
  ASSERT_EQ(full.code, 0) << full.output;
  const auto rows = [](const std::string& text) {
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') out += line + "\n";
    }
    return out;
  };
  EXPECT_EQ(rows(merged.output), rows(full.output));
  for (std::size_t i = 1; i < merge_args.size(); ++i) {
    std::remove(merge_args[i].c_str());
  }
  std::remove(data.c_str());
}

// --------------------------------------------------------------------------
// Documented options
// --------------------------------------------------------------------------

class CliDocumentedOption : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Subcommands, CliDocumentedOption,
                         ::testing::Values("generate", "scan", "scan2",
                                           "merge", "significance", "serve",
                                           "coordinate", "work"),
                         param_name);

TEST_P(CliDocumentedOption, EveryOptionInTheUsageSynopsisIsAccepted) {
  const std::string& sub = GetParam();
  const CliRun help = run_cli({sub, "--help"});
  ASSERT_EQ(help.code, 0) << help.output;
  const std::set<std::string> options = synopsis_options(help.output);
  ASSERT_FALSE(options.empty()) << help.output;
  for (const std::string& opt : options) {
    // No dataset: an accepted option reaches the handler, which prints
    // its usage and exits 2.
    const CliRun r = run_cli({sub, "--" + opt});
    EXPECT_EQ(r.code, 2) << "--" << opt << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos)
        << "--" << opt << ": " << r.output;
    EXPECT_EQ(r.output.find("unknown option"), std::string::npos)
        << "--" << opt << ": " << r.output;
  }
}

}  // namespace
}  // namespace trigen

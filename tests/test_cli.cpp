// Option validation of the `trigen` binary, driven as a subprocess: every
// subcommand rejects an option it does not read (exit 2, naming the option
// and the subcommand) before touching its inputs, and accepts every option
// its own usage synopsis documents.

#include <gtest/gtest.h>

#include <sys/wait.h>

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

/// Runs the CLI with `args` (none may contain a single quote).
CliRun run_cli(const std::vector<std::string>& args) {
  std::string cmd = "'" TRIGEN_CLI_PATH "'";
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

/// Unit tests of the benchmark helpers (helpers.hpp).  Plain executable:
/// exits non-zero and names each failed check.
///
///   cmake --build .bench_build/perfbench --target perfbench_test_helpers
///   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_quantile() {
  using perfbench::quantile;
  check(near(quantile({3, 1, 2}, 0.5), 2.0), "median of odd count");
  check(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median interpolates");
  check(near(quantile({1, 2, 3, 4, 5}, 0.0), 1.0), "q=0 is the minimum");
  check(near(quantile({1, 2, 3, 4, 5}, 1.0), 5.0), "q=1 is the maximum");
  check(near(quantile({0, 10}, 0.95), 9.5), "linear between neighbours");
  bool threw = false;
  try {
    quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "quantile of no samples throws");
}

void test_percentile_sample_count() {
  using perfbench::reportable_percentile;
  using perfbench::samples_beyond;
  check(samples_beyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
  check(samples_beyond(199, 0.95) == 9, "199 samples: 9 beyond p95");
  check(samples_beyond(20, 0.5) == 10, "20 samples: 10 beyond p50");
  std::vector<double> v;
  for (int i = 0; i < 199; ++i) v.push_back(i);
  check(!reportable_percentile(v, 0.95), "p95 of 199 samples refused");
  v.push_back(199);
  const auto p95 = reportable_percentile(v, 0.95);
  check(p95 && p95->samples == 200, "p95 of 200 samples carries its count");
  check(p95 && near(p95->value, 0.95 * 199), "p95 value");
  const auto p50 = reportable_percentile({7.0}, 0.5);
  check(p50 && p50->samples == 1 && near(p50->value, 7.0),
        "median of one sample is reportable");
  check(!reportable_percentile({}, 0.5), "no samples, no percentile");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,10) with children [1,4) and [3,6) (overlapping) and [8,12)
  // (clipped to 10); a grandchild must not count against the root.
  std::vector<Span> s = {
      {"root", 0, 10, -1, "w"}, {"a", 1, 4, 0, "w"}, {"b", 3, 6, 0, "w"},
      {"c", 8, 12, 0, "w"},     {"a.x", 1, 2, 1, "w"},
  };
  check(near(perfbench::self_time(s, 0), 10 - (5 + 2)),
        "self time subtracts the union of children");
  check(near(perfbench::self_time(s, 1), 3 - 1), "child minus grandchild");
  check(near(perfbench::self_time(s, 2), 3), "leaf self time is its span");
  std::vector<Span> nested = {{"p", 0, 4, -1, "w"}, {"q", 1, 2, 0, "w"},
                              {"r", 1.5, 1.75, 0, "w"}};
  check(near(perfbench::self_time(nested, 0), 3), "contained child counted once");

  perfbench::Tracer t(true, "w");
  const int outer = t.open("outer");
  t.add("inner", t.spans()[0].start, t.spans()[0].start);
  t.close(outer);
  check(t.spans().size() == 2 && t.spans()[1].parent == 0,
        "tracer links children to the open span");
  perfbench::Tracer off(false);
  off.close(off.open("x"));
  check(off.spans().empty(), "disabled tracer records nothing");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  check(valid_metric_name("setup_s"), "plain name");
  check(valid_metric_name("kernel.triple_block.best.words_per_s"), "dotted");
  check(valid_metric_name("shard.chunk_s.p95"), "percentile suffix");
  check(valid_metric_name("9lives-x"), "leading digit");
  check(!valid_metric_name(""), "empty");
  check(!valid_metric_name("a b"), "space");
  check(!valid_metric_name("a/b"), "slash");
  check(!valid_metric_name(".hidden"), "leading dot");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");

  perfbench::MetricSet m;
  m.set("wall_s", 1.5, "s");
  bool dup = false, bad = false;
  try {
    m.set("wall_s", 2.0, "s");
  } catch (const std::invalid_argument&) {
    dup = true;
  }
  try {
    m.set("bad name", 2.0, "s");
  } catch (const std::invalid_argument&) {
    bad = true;
  }
  check(dup, "duplicate metric refused");
  check(bad, "invalid metric refused");
  check(m.json() == "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}",
        "metric JSON");
}

}  // namespace

int main() {
  test_quantile();
  test_percentile_sample_count();
  test_self_time();
  test_metric_names();
  if (failures == 0) std::puts("perfbench helpers: all checks passed");
  return failures == 0 ? 0 : 1;
}

#pragma once
/// \file helpers.hpp
/// \brief Self-contained helpers of the trigen benchmark: order statistics,
/// the in-memory span tracer and its self-time rule, metric-name checks and
/// the one-line JSON result.  No trigen dependency, so
/// tests/test_helpers.cpp covers them without building the engine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] of `values` by linear interpolation between order
/// statistics (numpy's default).  Throws on an empty input.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Samples strictly above the q-quantile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at_or_below =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, at_or_below);
}

/// A percentile together with the sample count it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// The q-quantile of `values` if at least `min_beyond` samples lie beyond
/// it (the median is always reportable once there is a sample), else
/// nullopt: a tail percentile resting on fewer samples is noise.
inline std::optional<Percentile> reportable_percentile(
    const std::vector<double>& values, double q, std::size_t min_beyond = 10) {
  if (values.empty()) return std::nullopt;
  if (q > 0.5 && samples_beyond(values.size(), q) < min_beyond) {
    return std::nullopt;
  }
  return Percentile{quantile(values, q), values.size()};
}

/// Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  const char first = name.front();
  return first != '_' && first != '.' && first != '-';
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer.  `parent` indexes the
/// enclosing span in the same Tracer, -1 for a root.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::string workload;
};

/// Duration of span `i` minus the part of it its direct children cover
/// (the union of the children's intervals, clipped to the span, so
/// overlapping children are not subtracted twice).
inline double self_time(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans.at(i);
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans) {
    if (c.parent == static_cast<int>(i)) {
      const double a = std::max(c.start, s.start);
      const double b = std::min(c.end, s.end);
      if (b > a) kids.emplace_back(a, b);
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double run_a = 0.0, run_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : kids) {
    if (open && a <= run_b) {
      run_b = std::max(run_b, b);
      continue;
    }
    if (open) covered += run_b - run_a;
    run_a = a;
    run_b = b;
    open = true;
  }
  if (open) covered += run_b - run_a;
  return (s.end - s.start) - covered;
}

/// In-memory span recorder.  Disabled tracers record nothing, so traced
/// and untraced repetitions run the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::string workload = {})
      : enabled_(enabled), workload_(std::move(workload)) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now_s(), 0.0, current_, workload_});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// Records an already-finished child of the innermost open span.
  void add(std::string name, double start, double end) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start, end, current_, workload_});
  }

 private:
  bool enabled_;
  std::string workload_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

inline std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// A number with all its digits; non-finite values have no JSON form.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::domain_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set that rejects invalid or repeated names.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument("invalid metric name: " + name);
    }
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        throw std::invalid_argument("duplicate metric name: " + name);
      }
    }
    metrics_.push_back({name, value, unit});
  }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      out += '"' + json_escape(metrics_[i].name) + "\": {\"value\": " +
             json_number(metrics_[i].value) + ", \"unit\": \"" +
             json_escape(metrics_[i].unit) + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#pragma once
/// \file parse.hpp
/// \brief The strict number parsers behind every value the tools read.
/// parse_uint covers every count, rank, seed, shard id and fingerprint —
/// command-line flags (Args::get_uint), serve and fleet protocol
/// parameters, rank ranges and the TRIGEN-* text formats; parse_double
/// covers the command line's real-valued flags.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace trigen {

/// Parses all of `s` as an unsigned integer in `base` (10 or 16).  Every
/// byte must be a digit of the base: a sign, whitespace, a `0x` prefix or
/// trailing bytes (`10junk`) make it nullopt, as does a value that does not
/// fit in 64 bits.
inline std::optional<std::uint64_t> parse_uint(const std::string& s,
                                               int base = 10) {
  if (s.empty()) return std::nullopt;
  for (const char c : s) {
    const bool digit = (c >= '0' && c <= '9') ||
                       (base == 16 && ((c >= 'a' && c <= 'f') ||
                                       (c >= 'A' && c <= 'F')));
    if (!digit) return std::nullopt;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, base);
  if (errno == ERANGE) return std::nullopt;
  return v;
}

/// Parses all of `s` as a finite decimal number (an optional sign, digits,
/// a fraction and an exponent, as strtod reads them).  Leading whitespace,
/// trailing bytes (`0.5x`), hex floats, inf, nan and out-of-range values
/// make it nullopt.
inline std::optional<double> parse_double(const std::string& s) {
  if (s.empty() || !(s[0] == '-' || s[0] == '+' || s[0] == '.' ||
                     (s[0] >= '0' && s[0] <= '9'))) {
    return std::nullopt;
  }
  if (s.find_first_of("xXnN") != std::string::npos) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace trigen

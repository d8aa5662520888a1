#pragma once
/// \file parse.hpp
/// \brief The one strict unsigned-integer parser behind every count, rank,
/// shard id and fingerprint the tools read — command-line flags
/// (Args::get_uint), serve and fleet protocol parameters, rank ranges and
/// the TRIGEN-* text formats.

#include <cerrno>
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

}  // namespace trigen

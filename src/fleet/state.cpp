#include "trigen/fleet/state.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/shard/result_io.hpp"

namespace trigen::fleet {
namespace {

constexpr char kMagic[] = "TRIGEN-FLEET";
constexpr char kVersion[] = "v1";
constexpr char kKind[] = "fleet-state";

using combinatorics::to_string;
using shard::expect_key;
using shard::next_token;
using shard::read_trailer;
using shard::read_u64;
using shard::read_u64_field;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(std::string(kKind) + ": " + what);
}

}  // namespace

bool is_single_token(const std::string& s) {
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return !s.empty();
}

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kPending: return "pending";
    case ShardState::kLeased: return "leased";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "?";
}

void write_fleet_state_file(const std::string& path, const FleetState& s) {
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n'
     << "order " << s.order << '\n'
     << "fingerprint " << shard::format_fingerprint(s.fingerprint) << '\n'
     << "snps " << s.num_snps << '\n'
     << "samples " << s.num_samples << '\n'
     << "objective " << s.objective << '\n'
     << "top_k " << s.top_k << '\n'
     << "next_shard " << s.next_shard << '\n';
  os << "shards " << s.shards.size() << '\n';
  for (const ShardEntry& e : s.shards) {
    // A lease is a promise this process made; a restarted coordinator
    // cannot honor it, so leased persists as pending (the worker's next
    // renew gets `lease-lost` and it comes back for a fresh lease).
    const ShardState persisted =
        e.state == ShardState::kLeased ? ShardState::kPending : e.state;
    os << "s " << e.id << ' ' << e.range.first << ' ' << e.range.last << ' '
       << shard_state_name(persisted) << ' ' << e.failures << '\n';
  }
  os << "done " << s.done.size() << '\n';
  for (const DoneRange& d : s.done) {
    if (!is_single_token(d.file)) {
      throw std::invalid_argument(
          std::string(kKind) + ": spool file name '" + d.file +
          "' is empty or contains whitespace (unrepresentable in the "
          "token-oriented state format)");
    }
    os << "d " << d.range.first << ' ' << d.range.last << ' ' << d.file
       << '\n';
  }
  os << "end " << kMagic << '\n';
  shard::write_text_file_durably(path, kKind, os.str());
}

FleetState read_fleet_state_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open '" + path + "' for reading");

  std::string tok = next_token(is, kKind, "magic");
  if (tok != kMagic) {
    fail("bad magic '" + tok + "' (expected " + kMagic + ")");
  }
  tok = next_token(is, kKind, "format version");
  if (tok != kVersion) {
    fail("unsupported format version '" + tok + "' (expected " + kVersion +
         ")");
  }

  FleetState s;
  const std::uint64_t order = read_u64_field(is, kKind, "order");
  if (order < 2 || order > combinatorics::kMaxOrder) {
    fail("unsupported order " + std::to_string(order));
  }
  s.order = static_cast<unsigned>(order);
  s.fingerprint = read_u64_field(is, kKind, "fingerprint", 16);
  s.num_snps = read_u64_field(is, kKind, "snps");
  s.num_samples = read_u64_field(is, kKind, "samples");
  expect_key(is, kKind, "objective");
  s.objective = next_token(is, kKind, "objective name");
  s.top_k = read_u64_field(is, kKind, "top_k");
  if (s.top_k == 0) fail("top_k must be >= 1");
  s.next_shard = read_u64_field(is, kKind, "next_shard");

  std::uint64_t total = 0;
  try {
    total = combinatorics::n_choose_k(s.num_snps, s.order);
  } catch (const std::overflow_error&) {
    fail("rank space exceeds 2^64: C(" + std::to_string(s.num_snps) + "," +
         std::to_string(s.order) + ") is not addressable");
  }

  const std::uint64_t n_shards = read_u64_field(is, kKind, "shards");
  s.shards.reserve(n_shards);
  for (std::uint64_t i = 0; i < n_shards; ++i) {
    expect_key(is, kKind, "s");
    ShardEntry e;
    e.id = read_u64(is, kKind, "shard id");
    e.range.first = read_u64(is, kKind, "shard first");
    e.range.last = read_u64(is, kKind, "shard last");
    const std::string state = next_token(is, kKind, "shard state");
    if (state == "pending") {
      e.state = ShardState::kPending;
    } else if (state == "quarantined") {
      e.state = ShardState::kQuarantined;
    } else {
      fail("unknown shard state '" + state + "' (pending|quarantined)");
    }
    e.failures =
        static_cast<std::uint32_t>(read_u64(is, kKind, "shard failures"));
    if (e.range.first >= e.range.last || e.range.last > total) {
      fail("shard " + std::to_string(e.id) + " has invalid range " +
           to_string(e.range) + " for a rank space of " +
           std::to_string(total));
    }
    if (e.id >= s.next_shard) {
      fail("shard id " + std::to_string(e.id) + " >= next_shard " +
           std::to_string(s.next_shard));
    }
    s.shards.push_back(e);
  }

  const std::uint64_t n_done = read_u64_field(is, kKind, "done");
  s.done.reserve(n_done);
  for (std::uint64_t i = 0; i < n_done; ++i) {
    expect_key(is, kKind, "d");
    DoneRange d;
    d.range.first = read_u64(is, kKind, "done first");
    d.range.last = read_u64(is, kKind, "done last");
    d.file = next_token(is, kKind, "done file");
    if (d.range.first >= d.range.last || d.range.last > total) {
      fail("done range " + to_string(d.range) +
           " is invalid for a rank space of " + std::to_string(total));
    }
    if (!s.done.empty() && d.range.first < s.done.back().range.last) {
      fail("done ranges are unsorted or overlap at " + to_string(d.range));
    }
    s.done.push_back(d);
  }

  read_trailer(is, kKind, kMagic);
  return s;
}

}  // namespace trigen::fleet

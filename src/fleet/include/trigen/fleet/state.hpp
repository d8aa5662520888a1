#pragma once
/// \file state.hpp
/// \brief The fleet coordinator's durable lease table.
///
/// One line-oriented text format, `TRIGEN-FLEET v1`, written with the same
/// write→fsync→rename→fsync(dir) path as the shard artifacts
/// (shard::write_text_file_durably), so a killed coordinator always finds
/// either the previous complete table or the new complete table — never a
/// torn one:
///
///   TRIGEN-FLEET v1
///   order 3
///   fingerprint <hex16>
///   snps M
///   samples N
///   objective k2
///   top_k K
///   next_shard I
///   shards n
///   s <id> <first> <last> <pending|quarantined> <failures>
///   ...
///   done n
///   d <first> <last> <spool-file-name>
///   ...
///   end TRIGEN-FLEET
///
/// Only what resuming needs is persisted.  Leases are deliberately
/// *volatile*: a shard leased at crash time is written back as `pending`,
/// because a restarted coordinator cannot trust a lease it did not grant —
/// the worker either re-leases (its renew gets `lease-lost` and it comes
/// back around) or its durable checkpoint is harvested when the fresh
/// lease's worker adopts it.  `done` ranges name spool files holding
/// completed shard results (relative to the spool directory, hence the
/// whitespace-free-name requirement); after compaction they are pairwise
/// non-adjacent and sorted by first rank.

#include <cstdint>
#include <string>
#include <vector>

#include "trigen/combinatorics/scheduler.hpp"

namespace trigen::fleet {

/// Scheduling state of one not-yet-completed shard.
enum class ShardState {
  kPending,      ///< waiting for a worker (possibly under failure backoff)
  kLeased,       ///< granted to a worker; revoked when the lease expires
  kQuarantined,  ///< failed max_failures times; never re-leased (poison)
};

const char* shard_state_name(ShardState s);

/// True when `s` is one non-empty, whitespace-free token: representable in
/// the token-oriented state file and inside a protocol line.
bool is_single_token(const std::string& s);

/// One not-yet-completed shard.  Everything after `failures` is volatile
/// lease bookkeeping that is never persisted (see file comment).
struct ShardEntry {
  std::uint64_t id = 0;                ///< unique within one fleet state
  combinatorics::RankRange range;
  ShardState state = ShardState::kPending;
  std::uint32_t failures = 0;          ///< lease expiries / bad results so far

  std::string worker;                  ///< holder while kLeased
  std::uint64_t lease_deadline_ms = 0; ///< revoke at this clock reading
  std::uint64_t backoff_until_ms = 0;  ///< not leasable before this reading
  std::uint64_t watermark = 0;         ///< last renewed watermark (status only)
};

/// A completed contiguous rank interval, durably spooled as a shard-result
/// file (name relative to the spool directory).
struct DoneRange {
  combinatorics::RankRange range;
  std::string file;
};

/// Everything a restarted coordinator needs to continue a fleet scan.
struct FleetState {
  unsigned order = 3;
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;
  std::uint64_t top_k = 0;
  std::uint64_t next_shard = 0;  ///< id allocator (requeues mint fresh ids)
  std::vector<ShardEntry> shards;
  std::vector<DoneRange> done;
};

/// Atomic, crash-durable write of the lease table.  Throws
/// shard::ShardIoError (path + errno) on I/O failure and
/// std::invalid_argument when a spool file name contains whitespace (the
/// token-oriented format could not read it back).
void write_fleet_state_file(const std::string& path, const FleetState& s);

/// Strict parse-or-throw reader: bad magic, truncation, malformed fields,
/// out-of-range values and overlapping/unsorted done ranges all throw
/// std::runtime_error naming the first violation.  Leased entries come
/// back as kPending by construction of the writer.
FleetState read_fleet_state_file(const std::string& path);

}  // namespace trigen::fleet

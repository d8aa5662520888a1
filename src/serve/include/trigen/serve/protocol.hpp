#pragma once
/// \file protocol.hpp
/// \brief The line-delimited request protocol of the resident scan server.
///
/// One request per line, whitespace-separated tokens:
///
///     scan <id> [order=K] [objective=k2|mi|chi2] [top=N] [version=1..5]
///               [range=FIRST:LAST]
///     significance <id> [order=K] [objective=k2|mi|chi2]
///               [permutations=N] [seed=S]
///     cancel <id>
///     status
///     ping
///     shutdown
///
/// plus the fleet-coordination verbs spoken by `trigen work` against a
/// `trigen coordinate` service (same transports, same response shapes; a
/// plain scan server rejects them with a precise error and vice versa):
///
///     lease <worker>
///     renew <worker> shard=<id> watermark=<rank>
///     complete <worker> shard=<id>
///     abandon <worker> shard=<id> [reason=<token>]
///
/// `<id>` is a client-chosen job token of [A-Za-z0-9_.-]{1,64} — it tags
/// every event the server emits for the job and names the job's shutdown
/// checkpoint file, hence the conservative charset.  The fleet verbs reuse
/// the same slot and charset for the *worker* name.  Responses are
/// line-delimited too, first token = kind, second = job id (`-` when no job
/// is involved):
///
///     ok <id|-> <detail...>          request accepted / acknowledged
///     event <id> progress <done> <total>
///     event <id> checkpoint <path> watermark=<rank>
///     data <id> <payload line>       one line of the job's result payload
///     done <id> <detail...>          job complete; payload fully streamed
///     error <id|-> <message>         rejected request or failed job
///
/// A scan job's payload is exactly the CSV section `trigen scan` prints
/// (core/scan_csv.hpp); a significance job's payload is exactly the report
/// `trigen significance` prints (stats/report.hpp).  Stripping the
/// `data <id> ` prefix therefore yields output diffable byte-for-byte
/// against the standalone CLI.
///
/// A coordinator's lease grant carries the scan contract in the same
/// tokens a scan request uses:
///
///     ok <worker> lease shard=<id> order=K range=FIRST:LAST
///        objective=k2|mi|chi2 top=N checkpoint_every=RANKS lease_ms=MS
///        fingerprint=<hex16> ckpt=<path> out=<path>
///
/// Objectives are core::objective_token spellings (the long
/// core::objective_name form appears only inside files), numbers are
/// param_uint values (no sign, no trailing bytes) and FIRST:LAST is a
/// combinatorics::parse_rank_range range, on both ends of the wire.
///
/// Parsing is purely syntactic here (verb shape, id charset, key=value
/// form, no duplicate/unknown keys); semantic validation (ranges, orders,
/// value bounds) happens in the server, which knows the dataset.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace trigen::serve {

enum class RequestKind {
  kScan,
  kSignificance,
  kCancel,
  kStatus,
  kPing,
  kShutdown,
  // Fleet-coordination verbs (lease-based shard orchestration).
  kLease,
  kRenew,
  kComplete,
  kAbandon,
};

/// One parsed request line.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string id;  ///< job token (or worker name); empty for status/ping/shutdown
  std::map<std::string, std::string> params;  ///< key=value options, verbatim
};

/// True when `id` is a well-formed job token: [A-Za-z0-9_.-]{1,64}.
bool valid_job_id(const std::string& id);

/// Parses one request line.  Throws std::invalid_argument with a precise,
/// client-facing message on anything malformed: unknown verb, missing or
/// invalid job id, a token that is not key=value, an unknown or duplicate
/// key for the verb, or trailing tokens on verbs that take none.
Request parse_request(const std::string& line);

/// Parameter `key` of a request (or of a coordinator reply) as a
/// trigen::parse_uint number; `fallback` when absent, which without a
/// fallback is an error.  Throws std::invalid_argument naming the key.
std::uint64_t param_uint(const std::map<std::string, std::string>& params,
                         const std::string& key,
                         std::optional<std::uint64_t> fallback = {});

/// One response line: `<kind> <id|-> [rest]` (an empty `id` prints as
/// `-`, an empty `rest` is omitted).
std::string response(const char* kind, const std::string& id,
                     const std::string& rest);

}  // namespace trigen::serve

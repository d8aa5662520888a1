#pragma once
/// \file worker.hpp
/// \brief The fleet worker: lease, scan, renew, complete, repeat.
///
/// `run_worker` is the whole `trigen work` loop: connect to a
/// `trigen coordinate` Unix socket, ask for a lease, run the granted shard
/// through shard::run_shard_of with the coordinator-chosen checkpoint path
/// and cadence, send `renew` (carrying the checkpoint watermark) after
/// every durable chunk, write the shard-result file, send `complete`, and
/// come back for the next lease.  All coordination failure modes are
/// survived locally:
///
///   * `lease-lost` on a renew → stop scanning at the already-persisted
///     checkpoint and re-lease (the coordinator has re-owned the range).
///   * Connection loss → reconnect within `reconnect_ms`; an in-flight
///     shard is abandoned back to the coordinator on reconnect so its
///     checkpoint prefix is harvested promptly instead of after lease
///     expiry.  A coordinator that never comes back ends the worker with
///     exit 0 — its durable artifacts are the hand-off.
///   * A scan error (foreign checkpoint artifact, I/O failure) drops the
///     lease silently: expiry charges the shard a failure, which is what
///     feeds the coordinator's backoff/quarantine accounting for poison
///     shards.
///
/// Exit codes follow the trigen convention: 0 fleet drained (or
/// coordinator gone), 2 configuration error (wrong dataset), 3 interrupted
/// (SIGINT/SIGTERM; resumable), 4 aborted because only quarantined shards
/// remain.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "trigen/core/detector.hpp"
#include "trigen/dataset/genotype_matrix.hpp"

namespace trigen::fleet {

struct WorkerOptions {
  /// Worker name on the wire ([A-Za-z0-9_.-]{1,64}); the CLI defaults it
  /// to w<pid>.
  std::string id = "worker";
  unsigned threads = 0;  ///< 0 = hardware concurrency
  core::CpuVersion version = core::kDefaultCpuVersion;
  std::optional<core::KernelIsa> isa;  ///< pin a kernel ISA (else auto)
  std::uint64_t poll_ms = 200;         ///< wait/retry granularity
  /// Budget for re-reaching a lost coordinator before giving up (exit 0).
  std::uint64_t reconnect_ms = 15000;
  std::function<void(const std::string&)> log;  ///< stderr in the CLI
  const std::atomic<bool>* interrupted = nullptr;
};

/// Runs the worker loop against the coordinator socket until the fleet is
/// drained, the coordinator disappears for longer than `reconnect_ms`, the
/// fleet stalls on quarantined shards, or an interrupt lands.  Returns the
/// process exit code (see file comment).
int run_worker(const dataset::GenotypeMatrix& dataset,
               const std::string& socket_path, const WorkerOptions& options);

}  // namespace trigen::fleet

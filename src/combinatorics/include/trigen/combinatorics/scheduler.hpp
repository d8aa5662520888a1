#pragma once
/// \file scheduler.hpp
/// \brief Dynamic work distribution over the triplet rank space (§IV-A).
///
/// "To parallelize this algorithm, each core fetches a task from a thread
/// pool.  Each thread performs a set of combinations, which can be defined
/// dynamically in order to improve load balancing.  To avoid synchronization
/// barriers between tasks, the scores are kept locally to each thread and a
/// final reduction is performed" — this header implements exactly that
/// scheme: an atomic chunk dispenser plus a fork/join driver with
/// per-thread state and a user-supplied reduction.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace trigen::combinatorics {

/// Half-open range of combination ranks.
struct RankRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t size() const { return last - first; }
  bool empty() const { return first >= last; }
};

/// "[first, last)", the spelling of a rank range in messages and logs.
std::string to_string(const RankRange& r);

/// Parses the `FIRST:LAST` spelling of a rank range shared by `scan
/// --range`, the serve `range=` parameter and the fleet lease grant: two
/// trigen::parse_uint numbers around one colon, nothing else.  Nullopt on
/// any other text; bounds against the rank space are the caller's check.
std::optional<RankRange> parse_rank_range(const std::string& s);

/// Lock-free dynamic chunk dispenser: threads call next() until it returns
/// an empty range.  Chunks are contiguous and cover [0, total) exactly once.
class ChunkScheduler {
 public:
  ChunkScheduler(std::uint64_t total, std::uint64_t chunk_size);

  /// Next chunk, or an empty range when the space is exhausted.
  RankRange next();

  std::uint64_t total() const { return total_; }
  std::uint64_t chunk_size() const { return chunk_; }

 private:
  std::uint64_t total_;
  std::uint64_t chunk_;
  std::atomic<std::uint64_t> cursor_{0};
};

/// Fork/join driver: runs `worker(thread_index, scheduler)` on `threads`
/// std::threads (0 means hardware_concurrency).  The worker is expected to
/// drain the scheduler.  Returns after all workers joined.
void run_workers(ChunkScheduler& sched, unsigned threads,
                 const std::function<void(unsigned, ChunkScheduler&)>& worker);

/// Default chunk size heuristic: aim for ~64 chunks per thread so dynamic
/// scheduling can absorb imbalance without contention on the cursor.
std::uint64_t default_chunk_size(std::uint64_t total, unsigned threads);

}  // namespace trigen::combinatorics

#include "trigen/combinatorics/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "trigen/common/parse.hpp"

namespace trigen::combinatorics {

std::string to_string(const RankRange& r) {
  std::string s = "[";
  s += std::to_string(r.first);
  s += ", ";
  s += std::to_string(r.last);
  s += ')';
  return s;
}

std::optional<RankRange> parse_rank_range(const std::string& s) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return std::nullopt;
  const auto first = parse_uint(s.substr(0, colon));
  const auto last = parse_uint(s.substr(colon + 1));
  if (!first || !last) return std::nullopt;
  return RankRange{*first, *last};
}

ChunkScheduler::ChunkScheduler(std::uint64_t total, std::uint64_t chunk_size)
    : total_(total), chunk_(chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument("ChunkScheduler: chunk size must be non-zero");
  }
}

RankRange ChunkScheduler::next() {
  // CAS loop instead of a blind fetch_add: the cursor never moves past
  // `total_`, so draining threads cannot wrap it around 2^64 (a blind add
  // of a huge chunk — e.g. chunk > total on a zero/tiny space — would
  // otherwise re-issue ranges after ~2^64/chunk exhausted polls).
  std::uint64_t first = cursor_.load(std::memory_order_relaxed);
  while (first < total_) {
    const std::uint64_t last =
        chunk_ >= total_ - first ? total_ : first + chunk_;
    if (cursor_.compare_exchange_weak(first, last,
                                      std::memory_order_relaxed)) {
      return {first, last};
    }
  }
  return {};
}

void run_workers(ChunkScheduler& sched, unsigned threads,
                 const std::function<void(unsigned, ChunkScheduler&)>& worker) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads == 1) {
    worker(0, sched);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([t, &sched, &worker] { worker(t, sched); });
  }
  for (auto& th : pool) th.join();
}

std::uint64_t default_chunk_size(std::uint64_t total, unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t target_chunks = std::uint64_t{64} * threads;
  return std::max<std::uint64_t>(1, total / std::max<std::uint64_t>(1, target_chunks));
}

}  // namespace trigen::combinatorics

#include "trigen/shard/result_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <time.h>
#include <unistd.h>
#endif

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/parse.hpp"

namespace trigen::shard {
namespace {

constexpr char kShardMagic[] = "TRIGEN-SHARD";
constexpr char kCheckpointMagic[] = "TRIGEN-CHECKPOINT";
/// Writers emit v2 (with the `order` field); readers also accept the
/// pre-pairwise v1, whose order is 3 by definition.
constexpr char kFormatVersion[] = "v2";
constexpr char kLegacyVersion[] = "v1";

/// Plausibility bounds mirroring dataset I/O: a corrupted header must fail
/// with a parse error, not an absurd allocation or a 64-bit overflow in
/// C(M,k).
constexpr std::uint64_t kMaxSnps = 1u << 22;
constexpr std::uint64_t kMaxSamples = 1u << 22;
constexpr std::uint64_t kMaxTopK = 1u << 24;

[[noreturn]] void fail(const char* kind, const std::string& what) {
  throw std::runtime_error(std::string(kind) + ": " + what);
}

}  // namespace

std::string next_token(std::istream& is, const char* kind, const char* what) {
  std::string tok;
  if (!(is >> tok)) {
    fail(kind, std::string("truncated file: missing ") + what);
  }
  return tok;
}

void expect_key(std::istream& is, const char* kind, const char* key) {
  const std::string tok = next_token(is, kind, key);
  if (tok != key) {
    fail(kind, "expected '" + std::string(key) + "', got '" + tok + "'");
  }
}

std::uint64_t read_u64(std::istream& is, const char* kind, const char* what,
                       int base) {
  const std::string tok = next_token(is, kind, what);
  if (const auto v = parse_uint(tok, base)) return *v;
  fail(kind, std::string("malformed ") + what + " '" + tok + "'");
}

std::uint64_t read_u64_field(std::istream& is, const char* kind,
                             const char* key, int base) {
  expect_key(is, kind, key);
  return read_u64(is, kind, key, base);
}

void read_trailer(std::istream& is, const char* kind, const char* magic) {
  expect_key(is, kind, "end");
  const std::string tok = next_token(is, kind, "trailer magic");
  if (tok != magic) {
    fail(kind, "trailer names '" + tok + "' (expected " + magic + ")");
  }
  std::string extra;
  if (is >> extra) {
    fail(kind, "trailing content after the end trailer: '" + extra + "'");
  }
}

std::string format_fingerprint(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

namespace {

double read_double(std::istream& is, const char* kind, const char* what) {
  const std::string tok = next_token(is, kind, what);
  const char* begin = tok.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    fail(kind, std::string("malformed ") + what + " '" + tok + "'");
  }
  return v;
}

/// `%a` hex float: exact double round trip, locale-independent.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Header fields shared by both formats, in file order.
struct Header {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_samples = 0;
  std::string objective;
  std::uint64_t top_k = 0;
  combinatorics::RankRange range;
};

void write_header(std::ostream& os, const char* magic, unsigned order,
                  const Header& h) {
  os << magic << ' ' << kFormatVersion << '\n'
     << "order " << order << '\n'
     << "fingerprint " << format_fingerprint(h.fingerprint) << '\n'
     << "snps " << h.num_snps << '\n'
     << "samples " << h.num_samples << '\n'
     << "objective " << h.objective << '\n'
     << "top_k " << h.top_k << '\n'
     << "range " << h.range.first << ' ' << h.range.last << '\n';
}

/// Reads magic + version + order (v2) or magic + version (v1, order 3).
/// Fails on anything else; a wrong-order file is rejected here with a
/// precise message rather than misread downstream.  `expected_order` 0
/// accepts any supported order (the probing mode of probe_shard_order).
unsigned read_preamble(std::istream& is, const char* magic, const char* kind,
                       unsigned expected_order) {
  std::string tok;
  if (!(is >> tok)) fail(kind, "empty file");
  if (tok != magic) {
    fail(kind, "bad magic '" + tok + "' (expected " + magic + ")");
  }
  tok = next_token(is, kind, "format version");
  unsigned order = 3;  // v1 predates pairwise shards: always a triplet scan
  if (tok == kFormatVersion) {
    const std::uint64_t o = read_u64_field(is, kind, "order");
    if (o < 2 || o > combinatorics::kMaxOrder) {
      fail(kind, "unsupported order " + std::to_string(o) +
                     " (this build reads orders 2.." +
                     std::to_string(combinatorics::kMaxOrder) + ")");
    }
    order = static_cast<unsigned>(o);
  } else if (tok != kLegacyVersion) {
    fail(kind, "unsupported format version '" + tok + "' (expected " +
                   kFormatVersion + " or " + kLegacyVersion + ")");
  }
  if (expected_order != 0 && order != expected_order) {
    fail(kind, "order mismatch: file holds an order-" +
                   std::to_string(order) + " scan, but an order-" +
                   std::to_string(expected_order) +
                   " artifact was requested");
  }
  return order;
}

template <unsigned Order>
Header read_header(std::istream& is, const char* magic, const char* kind) {
  read_preamble(is, magic, kind, Order);
  Header h;
  h.fingerprint = read_u64_field(is, kind, "fingerprint", 16);
  h.num_snps = read_u64_field(is, kind, "snps");
  h.num_samples = read_u64_field(is, kind, "samples");
  if (h.num_snps < Order || h.num_snps > kMaxSnps || h.num_samples == 0 ||
      h.num_samples > kMaxSamples) {
    fail(kind, "implausible dataset shape (" + std::to_string(h.num_snps) +
                   " x " + std::to_string(h.num_samples) + ")");
  }
  expect_key(is, kind, "objective");
  h.objective = next_token(is, kind, "objective name");
  h.top_k = read_u64_field(is, kind, "top_k");
  if (h.top_k == 0 || h.top_k > kMaxTopK) {
    fail(kind, "implausible top_k " + std::to_string(h.top_k));
  }
  expect_key(is, kind, "range");
  h.range.first = read_u64(is, kind, "range first");
  h.range.last = read_u64(is, kind, "range last");
  // At order >= 4 a plausible SNP count can still overflow the u64 rank
  // fields; such a scan is unrepresentable in this format.
  std::uint64_t total = 0;
  try {
    total = combinatorics::n_choose_k(h.num_snps, Order);
  } catch (const std::overflow_error&) {
    fail(kind, "rank space exceeds 2^64: C(" + std::to_string(h.num_snps) +
                   "," + std::to_string(Order) + ") is not addressable");
  }
  if (h.range.first >= h.range.last || h.range.last > total) {
    fail(kind, "invalid range " + combinatorics::to_string(h.range) +
                   " for C(" + std::to_string(h.num_snps) + "," +
                   std::to_string(Order) + ") = " + std::to_string(total));
  }
  return h;
}

template <typename Scored>
void write_entries(std::ostream& os, const std::vector<Scored>& entries) {
  using Traits = OrderTraits<Scored>;
  os << "entries " << entries.size() << '\n';
  for (const auto& e : entries) {
    os << 'e';
    for (const std::uint32_t snp : Traits::snps(e)) os << ' ' << snp;
    os << ' ' << format_double(e.score) << '\n';
  }
}

/// Reads and validates the entry list: count == min(top_k, covered ranks),
/// each combination strictly increasing and inside the covered rank
/// interval, list strictly ascending in (score, rank) — i.e. exactly a
/// top-k dump.
template <typename Scored>
std::vector<Scored> read_entries(std::istream& is, const char* kind,
                                 const Header& h, std::uint64_t covered) {
  using Traits = OrderTraits<Scored>;
  const std::uint64_t n = read_u64_field(is, kind, "entries");
  const std::uint64_t expected = std::min<std::uint64_t>(h.top_k, covered);
  if (n != expected) {
    fail(kind, "entry count " + std::to_string(n) + " != min(top_k=" +
                   std::to_string(h.top_k) + ", covered=" +
                   std::to_string(covered) + ") = " +
                   std::to_string(expected));
  }
  std::vector<Scored> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    expect_key(is, kind, "e");
    std::array<std::uint32_t, Traits::kOrder> snps{};
    bool increasing = true;
    for (unsigned j = 0; j < Traits::kOrder; ++j) {
      snps[j] = static_cast<std::uint32_t>(read_u64(is, kind, "entry snp"));
      if (j > 0 && snps[j] <= snps[j - 1]) increasing = false;
    }
    const double score = read_double(is, kind, "entry score");
    if (!increasing || snps[Traits::kOrder - 1] >= h.num_snps) {
      fail(kind, "entry " + std::to_string(i) + " is not a strictly " +
                     "increasing order-" + std::to_string(Traits::kOrder) +
                     " combination below " + std::to_string(h.num_snps));
    }
    const Scored s = Traits::make(snps, score);
    const std::uint64_t rank = Traits::rank(s);
    if (rank < h.range.first || rank >= h.range.first + covered) {
      fail(kind, "entry " + std::to_string(i) + " rank " +
                     std::to_string(rank) + " outside the covered ranks [" +
                     std::to_string(h.range.first) + ", " +
                     std::to_string(h.range.first + covered) + ")");
    }
    if (!entries.empty() && !(entries.back() < s)) {
      fail(kind, "entries are not strictly ascending in (score, rank) at "
                 "index " + std::to_string(i));
    }
    entries.push_back(s);
  }
  return entries;
}

/// EINTR/EAGAIN-class errno values: the syscall may succeed if simply
/// retried, so the writers below retry them with bounded backoff instead of
/// failing the artifact (and ultimately the whole shard) on the first
/// signal-interrupted write.
bool transient_errno(int e) {
  return e == EINTR || e == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || e == EWOULDBLOCK
#endif
      ;
}

/// Every durable-write failure surfaces the path, strerror(errno), the raw
/// errno, and — when retries were spent — how many, as a ShardIoError whose
/// transient() classification tells run_shard whether re-attempting the
/// whole write is worthwhile.
[[noreturn]] void fail_io(const char* kind, const char* op,
                          const std::string& path, int err, int retries = 0) {
  std::string msg = std::string(kind) + ": " + op + " '" + path +
                    "' failed: " + std::strerror(err) + " (errno " +
                    std::to_string(err) + ")";
  if (retries > 0) {
    msg += " after " + std::to_string(retries) + " retries";
  }
  throw ShardIoError(msg, path, err, transient_errno(err));
}

#ifndef _WIN32
/// Retry budget for EAGAIN-class failures on one durable write; EINTR
/// retries are free (immediate) and uncounted, since a signal storm should
/// never translate into artifact loss.
constexpr int kMaxTransientRetries = 8;

void backoff_sleep(int attempt) {
  // 1, 2, 4, ... ms, capped at 64ms: ~127ms worst-case total, long enough
  // to ride out a transient EAGAIN without stalling a scan noticeably.
  struct timespec ts = {0, (1L << (attempt < 6 ? attempt : 6)) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

/// Durably writes `data` to `tmp`: the file contents are fsynced before the
/// caller renames, so a crash or power loss after the rename can never land
/// a truncated/empty file under the final name — the corruption the `end`
/// trailer exists to detect must come from outside, never from us.
void write_durable(const std::string& tmp, const char* kind,
                   const std::string& data) {
  int fd = -1;
  for (int attempt = 0;; ++attempt) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) break;
    if (errno == EINTR) continue;
    if (transient_errno(errno) && attempt < kMaxTransientRetries) {
      backoff_sleep(attempt);
      continue;
    }
    fail_io(kind, "open for writing", tmp, errno, attempt);
  }
  std::size_t off = 0;
  int retries = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (transient_errno(err) && retries < kMaxTransientRetries) {
        backoff_sleep(retries++);
        continue;
      }
      ::close(fd);
      fail_io(kind, "write", tmp, err, retries);
    }
    off += static_cast<std::size_t>(n);
  }
  while (::fsync(fd) != 0) {
    const int err = errno;
    if (err == EINTR) continue;
    ::close(fd);
    fail_io(kind, "fsync", tmp, err);
  }
  if (::close(fd) != 0 && errno != EINTR) {
    // EINTR on close counts as closed (POSIX leaves the fd state
    // unspecified; retrying risks closing a reused descriptor).
    fail_io(kind, "close", tmp, errno);
  }
}

/// Best-effort fsync of the directory holding `path`, making the rename
/// itself durable (POSIX only persists the new directory entry once the
/// directory is synced).  Failure is not fatal: the file contents are
/// already safe, and some filesystems refuse directory fsync.
void sync_parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}
#else
void write_durable(const std::string& tmp, const char* kind,
                   const std::string& data) {
  std::ofstream os(tmp, std::ios_base::trunc | std::ios_base::binary);
  if (!os) fail_io(kind, "open for writing", tmp, errno);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
  os.flush();
  if (!os) fail_io(kind, "write", tmp, errno);
}

void sync_parent_directory(const std::string&) {}
#endif

/// Atomic, crash-durable write: the full body is rendered in memory, fsynced
/// into a temp file alongside the target, renamed over it, and the parent
/// directory is synced so the rename survives power loss.  Readers therefore
/// only ever observe either the old complete file or the new complete file.
template <typename WriteFn>
void write_file_atomically(const std::string& path, const char* kind,
                           WriteFn&& write_fn) {
  std::ostringstream body;
  write_fn(body);
  if (!body) fail(kind, "render failure for '" + path + "'");
  const std::string tmp = path + ".tmp";
  write_durable(tmp, kind, body.str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail_io(kind, "rename over", path, err);
  }
  sync_parent_directory(path);
}

std::ifstream open_for_read(const std::string& path, const char* kind) {
  std::ifstream is(path);
  if (!is) fail(kind, "cannot open '" + path + "' for reading");
  return is;
}

// -- Generic format bodies ---------------------------------------------------

template <typename Scored>
void write_shard_result_impl(std::ostream& os,
                             const BasicShardResult<Scored>& r) {
  write_header(os, kShardMagic, OrderTraits<Scored>::kOrder,
               Header{r.fingerprint, r.num_snps, r.num_samples, r.objective,
                      r.top_k, r.range});
  os << "seconds " << format_double(r.seconds) << '\n';
  write_entries(os, r.entries);
  os << "end " << kShardMagic << '\n';
}

template <typename Scored>
BasicShardResult<Scored> read_shard_result_impl(std::istream& is) {
  const char* kind = "shard-result";
  const Header h =
      read_header<OrderTraits<Scored>::kOrder>(is, kShardMagic, kind);
  BasicShardResult<Scored> r;
  r.fingerprint = h.fingerprint;
  r.num_snps = h.num_snps;
  r.num_samples = h.num_samples;
  r.objective = h.objective;
  r.top_k = h.top_k;
  r.range = h.range;
  expect_key(is, kind, "seconds");
  r.seconds = read_double(is, kind, "seconds");
  r.entries = read_entries<Scored>(is, kind, h, h.range.size());
  read_trailer(is, kind, kShardMagic);
  return r;
}

template <typename Scored>
void write_checkpoint_impl(std::ostream& os,
                           const BasicCheckpoint<Scored>& c) {
  write_header(os, kCheckpointMagic, OrderTraits<Scored>::kOrder,
               Header{c.fingerprint, c.num_snps, c.num_samples, c.objective,
                      c.top_k, c.range});
  os << "watermark " << c.watermark << '\n';
  os << "seconds " << format_double(c.seconds) << '\n';
  write_entries(os, c.entries);
  os << "end " << kCheckpointMagic << '\n';
}

template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_impl(std::istream& is) {
  const char* kind = "checkpoint";
  const Header h =
      read_header<OrderTraits<Scored>::kOrder>(is, kCheckpointMagic, kind);
  BasicCheckpoint<Scored> c;
  c.fingerprint = h.fingerprint;
  c.num_snps = h.num_snps;
  c.num_samples = h.num_samples;
  c.objective = h.objective;
  c.top_k = h.top_k;
  c.range = h.range;
  c.watermark = read_u64_field(is, kind, "watermark");
  if (c.watermark < c.range.first || c.watermark > c.range.last) {
    fail(kind, "watermark " + std::to_string(c.watermark) +
                   " outside range [" + std::to_string(c.range.first) + ", " +
                   std::to_string(c.range.last) + "]");
  }
  expect_key(is, kind, "seconds");
  c.seconds = read_double(is, kind, "seconds");
  c.entries = read_entries<Scored>(is, kind, h, c.watermark - c.range.first);
  read_trailer(is, kind, kCheckpointMagic);
  return c;
}

}  // namespace

void write_text_file_durably(const std::string& path, const char* kind,
                             const std::string& body) {
  write_file_atomically(path, kind,
                        [&](std::ostream& os) { os << body; });
}

template <typename Scored>
void write_shard_result(std::ostream& os, const BasicShardResult<Scored>& r) {
  write_shard_result_impl(os, r);
}

template <typename Scored>
BasicShardResult<Scored> read_shard_result_as(std::istream& is) {
  return read_shard_result_impl<Scored>(is);
}

template <typename Scored>
void write_shard_result_file(const std::string& path,
                             const BasicShardResult<Scored>& r) {
  write_file_atomically(path, "shard-result", [&](std::ostream& os) {
    write_shard_result_impl(os, r);
  });
}

template <typename Scored>
BasicShardResult<Scored> read_shard_result_file_as(const std::string& path) {
  auto is = open_for_read(path, "shard-result");
  return read_shard_result_impl<Scored>(is);
}

template <typename Scored>
void write_checkpoint(std::ostream& os, const BasicCheckpoint<Scored>& c) {
  write_checkpoint_impl(os, c);
}

template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_as(std::istream& is) {
  return read_checkpoint_impl<Scored>(is);
}

template <typename Scored>
void write_checkpoint_file(const std::string& path,
                           const BasicCheckpoint<Scored>& c) {
  write_file_atomically(path, "checkpoint", [&](std::ostream& os) {
    write_checkpoint_impl(os, c);
  });
}

template <typename Scored>
BasicCheckpoint<Scored> read_checkpoint_file_as(const std::string& path) {
  auto is = open_for_read(path, "checkpoint");
  return read_checkpoint_impl<Scored>(is);
}

// One instantiation per supported interaction order.
#define TRIGEN_SHARD_IO_INSTANTIATE(S)                                        \
  template void write_shard_result<S>(std::ostream&,                          \
                                      const BasicShardResult<S>&);            \
  template BasicShardResult<S> read_shard_result_as<S>(std::istream&);        \
  template void write_shard_result_file<S>(const std::string&,               \
                                           const BasicShardResult<S>&);       \
  template BasicShardResult<S> read_shard_result_file_as<S>(                  \
      const std::string&);                                                    \
  template void write_checkpoint<S>(std::ostream&, const BasicCheckpoint<S>&);\
  template BasicCheckpoint<S> read_checkpoint_as<S>(std::istream&);           \
  template void write_checkpoint_file<S>(const std::string&,                  \
                                         const BasicCheckpoint<S>&);          \
  template BasicCheckpoint<S> read_checkpoint_file_as<S>(const std::string&);

TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredPair)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredTriplet)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredTuple<4>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredTuple<5>)
TRIGEN_SHARD_IO_INSTANTIATE(core::ScoredTuple<6>)
#undef TRIGEN_SHARD_IO_INSTANTIATE

unsigned probe_shard_order(const std::string& path) {
  const char* kind = "shard-result";
  auto is = open_for_read(path, kind);
  return read_preamble(is, kShardMagic, kind, /*expected_order=*/0);
}

}  // namespace trigen::shard

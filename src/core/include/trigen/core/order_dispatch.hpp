#pragma once
/// \file order_dispatch.hpp
/// \brief Runtime interaction order -> compile-time instantiation, and the
/// per-order detectors a long-lived process (serve, fleet worker) shares.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/core/detector.hpp"

namespace trigen::core {

/// Calls `fn(std::integral_constant<unsigned, K>{})` for `order` == K and
/// returns its result.  Any order outside [2, kMaxOrder] throws
/// std::invalid_argument naming the valid range.
template <typename Fn>
decltype(auto) with_order(std::uint64_t order, Fn&& fn) {
  static_assert(combinatorics::kMaxOrder == 6,
                "with_order lists every supported order");
  switch (order) {
    case 2: return fn(std::integral_constant<unsigned, 2>{});
    case 3: return fn(std::integral_constant<unsigned, 3>{});
    case 4: return fn(std::integral_constant<unsigned, 4>{});
    case 5: return fn(std::integral_constant<unsigned, 5>{});
    case 6: return fn(std::integral_constant<unsigned, 6>{});
    default: break;
  }
  throw std::invalid_argument(
      "unsupported order " + std::to_string(order) +
      " (interaction orders are 2.." +
      std::to_string(combinatorics::kMaxOrder) + ")");
}

/// Throws what with_order throws for an order it cannot dispatch.
inline void check_order(std::uint64_t order) {
  with_order(order, [](auto) {});
}

/// One detector (= one set of bitplanes) per interaction order over a
/// resident dataset, built on first use and shared by every later scan of
/// that order.  Thread-safe: concurrent get() calls build each order at
/// most once.  The dataset must outlive the cache.
class DetectorCache {
 public:
  explicit DetectorCache(const dataset::GenotypeMatrix& d) : d_(d) {}

  template <unsigned K>
  std::shared_ptr<const BasicDetector<K>> get() {
    std::lock_guard<std::mutex> lk(mu_);
    auto& slot = slots_[K];
    if (!slot) slot = std::make_shared<const BasicDetector<K>>(d_);
    return std::static_pointer_cast<const BasicDetector<K>>(slot);
  }

 private:
  const dataset::GenotypeMatrix& d_;
  std::mutex mu_;
  std::array<std::shared_ptr<const void>, combinatorics::kMaxOrder + 1>
      slots_;
};

}  // namespace trigen::core

#pragma once
/// \file kernel_bodies.hpp
/// \brief Every kernel family, written once as a template over a popcount
/// strategy (paper §IV-A: the V4 variants differ only in how set bits are
/// counted).
///
/// Internal to src/core.  Each kernel translation unit defines its
/// strategy structs and instantiates `kernel_table<S>()` under its own ISA
/// flags.  Everything here has internal linkage (anonymous namespace,
/// `__builtin_popcount` rather than the std::popcount template): a weak
/// copy of a helper compiled with -mavx2 could be the one the linker keeps
/// for portable callers too.  The `core.isa_objects_no_weak_symbols` test
/// checks the ISA objects for that.
///
/// A strategy S supplies:
///  * `V`, `kWords`: the vector type and its width in Words;
///  * `load`, `store` (unaligned), `and_`, `xor_`, `nor`;
///  * a popcount accumulator: type `Acc` (`Acc{}` is zero),
///    `acc_add(Acc, V)` and `acc_sum(Acc)`;
///  * `broadcast(Word)`, `lane_popcnt(V)` (per-32-bit-lane counts) and
///    `add_lanes(V, V)` for the batch kernels, which vectorize over label
///    lanes instead of words;
///  * `kLabelPopsWindow`, `kFinalWindow`: how many `kWords`-lane label
///    groups one batch pass holds in registers.
/// Vector bodies finish a word range that is not a whole number of vectors
/// with the `Scalar` strategy below (or, in the ladder final, its
/// popcount), instantiated under the same flags.

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kernels_detail.hpp"

namespace trigen::core::detail {
namespace {

inline std::uint32_t popcount32(std::uint32_t v) {
  return static_cast<std::uint32_t>(__builtin_popcount(v));
}

inline std::uint32_t popcount64(std::uint64_t v) {
  return static_cast<std::uint32_t>(__builtin_popcountll(v));
}

constexpr std::size_t pow3(unsigned k) { return k == 0 ? 1 : 3 * pow3(k - 1); }

/// One 32-bit word at a time.
struct Scalar {
  using V = Word;
  static constexpr std::size_t kWords = 1;
  static constexpr int kLabelPopsWindow = 8;
  static constexpr int kFinalWindow = 8;

  static V load(const Word* p) { return *p; }
  static void store(Word* p, V v) { *p = v; }
  static V and_(V a, V b) { return a & b; }
  static V xor_(V a, V b) { return a ^ b; }
  static V nor(V a, V b) { return static_cast<Word>(~(a | b)); }
  static V broadcast(Word w) { return w; }
  static V lane_popcnt(V v) { return popcount32(v); }
  static V add_lanes(V a, V b) { return a + b; }

  using Acc = std::uint32_t;
  static Acc acc_add(Acc a, V v) { return a + popcount32(v); }
  static std::uint32_t acc_sum(Acc a) { return a; }
};

/// The three genotype planes of one SNP at word w: two explicit, genotype
/// 2 by NOR.
template <class S>
inline void genotypes(const Word* g0, const Word* g1, std::size_t w,
                      typename S::V (&g)[3]) {
  g[0] = S::load(g0 + w);
  g[1] = S::load(g1 + w);
  g[2] = S::nor(g[0], g[1]);
}

/// Calls step(first, w) for each whole vector of words [w_begin, w_end),
/// `first` a std::bool_constant that is true for the first vector only;
/// returns the first word not covered.
template <class S, class Step>
inline std::size_t for_vectors(std::size_t w_begin, std::size_t w_end,
                               Step&& step) {
  std::size_t w = w_begin;
  if (w + S::kWords > w_end) return w;
  step(std::true_type{}, w);
  for (w += S::kWords; w + S::kWords <= w_end; w += S::kWords) {
    step(std::false_type{}, w);
  }
  return w;
}

/// Adds popcount(v) to `acc`, or starts it there on the first vector, so
/// accumulator arrays need no zeroing pass (a memset per call, which
/// dominates on short planes).
template <class S, bool First>
inline void count(typename S::Acc& acc, typename S::V v) {
  acc = S::acc_add(First ? typename S::Acc{} : acc, v);
}

/// Depth-first product over genotype axes I..K-1, reusing each partial AND
/// across its three children.
template <class S, unsigned K, unsigned I, bool First>
inline void descend(const typename S::V (&g)[K][3], typename S::V prefix,
                    typename S::Acc* cells) {
  for (unsigned gi = 0; gi < 3; ++gi) {
    const typename S::V v = S::and_(prefix, g[I][gi]);
    if constexpr (I + 1 == K) {
      count<S, First>(cells[gi], v);
    } else {
      descend<S, K, I + 1, First>(g, v, cells + gi * pow3(K - 1 - I));
    }
  }
}

// ---------------------------------------------------------------------------
// The six bodies
// ---------------------------------------------------------------------------

/// Direct order-K kernel: adds the 3^K cells of the combination whose SNP i
/// has class planes (g0[i], g1[i]), over words [w_begin, w_end), into `ft`
/// (cell = sum g_i * 3^(K-1-i)).  K = 2 is the pair count, K = 3 the
/// triple block.
template <class S, unsigned K>
void direct(const Word* const* TRIGEN_RESTRICT g0,
            const Word* const* TRIGEN_RESTRICT g1, std::size_t w_begin,
            std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft) {
  typename S::Acc acc[pow3(K)];
  const std::size_t w =
      for_vectors<S>(w_begin, w_end, [&](auto first, std::size_t at) {
        typename S::V g[K][3];
        for (unsigned i = 0; i < K; ++i) genotypes<S>(g0[i], g1[i], at, g[i]);
        for (unsigned gx = 0; gx < 3; ++gx) {
          descend<S, K, 1, first>(g, g[0][gx], acc + gx * pow3(K - 1));
        }
      });
  if (w > w_begin) {
    for (std::size_t c = 0; c < pow3(K); ++c) ft[c] += S::acc_sum(acc[c]);
  }
  if constexpr (S::kWords > 1) {
    if (w < w_end) direct<Scalar, K>(g0, g1, w, w_end, ft);
  }
}

/// PairPlaneBuildKernel: the nine x∩y planes of words [w_begin, w_end) and
/// their popcounts.
template <class S>
void pair_plane_build(const Word* TRIGEN_RESTRICT x0,
                      const Word* TRIGEN_RESTRICT x1,
                      const Word* TRIGEN_RESTRICT y0,
                      const Word* TRIGEN_RESTRICT y1, std::size_t w_begin,
                      std::size_t w_end, Word* TRIGEN_RESTRICT xy,
                      std::size_t stride,
                      std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  typename S::Acc acc[9];
  const std::size_t w =
      for_vectors<S>(w_begin, w_end, [&](auto first, std::size_t at) {
        typename S::V xg[3];
        typename S::V yg[3];
        genotypes<S>(x0, x1, at, xg);
        genotypes<S>(y0, y1, at, yg);
        for (unsigned p = 0; p < 9; ++p) {
          const typename S::V v = S::and_(xg[p / 3], yg[p % 3]);
          S::store(xy + p * stride + (at - w_begin), v);
          count<S, first>(acc[p], v);
        }
      });
  if (w > w_begin) {
    for (unsigned p = 0; p < 9; ++p) xy_pop9[p] += S::acc_sum(acc[p]);
  }
  if constexpr (S::kWords > 1) {
    if (w < w_end) {
      pair_plane_build<Scalar>(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                               stride, xy_pop9);
    }
  }
}

/// PrefixExtendKernel: the three children P∩s0, P∩s1, P∩s2 of each of
/// `count` cached prefix planes.
template <class S>
void ladder_extend(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                   std::size_t stride, const Word* TRIGEN_RESTRICT s0,
                   const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                   std::size_t w_end, Word* TRIGEN_RESTRICT out,
                   std::size_t out_stride,
                   std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  const std::size_t whole = n - n % S::kWords;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* pt = prefix + t * stride;
    Word* o = out + t * 3 * out_stride;
    typename S::Acc acc[3] = {};
    for (std::size_t r = 0; r < whole; r += S::kWords) {
      const typename S::V p = S::load(pt + r);
      const typename S::V a = S::and_(p, S::load(s0 + w_begin + r));
      const typename S::V b = S::and_(p, S::load(s1 + w_begin + r));
      // Partition identity: a and b are disjoint subsets of p, so the
      // genotype-2 child (padding included, like the NOR planes) is the
      // XOR remainder.
      const typename S::V c = S::xor_(S::xor_(p, a), b);
      S::store(o + r, a);
      S::store(o + out_stride + r, b);
      S::store(o + 2 * out_stride + r, c);
      acc[0] = S::acc_add(acc[0], a);
      acc[1] = S::acc_add(acc[1], b);
      acc[2] = S::acc_add(acc[2], c);
    }
    if (out_pops != nullptr) {
      for (unsigned g = 0; g < 3; ++g) {
        out_pops[t * 3 + g] += S::acc_sum(acc[g]);
      }
    }
  }
  if constexpr (S::kWords > 1) {
    if (whole < n) {
      ladder_extend<Scalar>(prefix + whole, count, stride, s0, s1,
                            w_begin + whole, w_end, out + whole, out_stride,
                            out_pops);
    }
  }
}

/// PrefixFinalKernel: the last SNP against `count` cached prefix planes;
/// genotype-2 cells from the partition identity |P∩z2| = |P| - |P∩z0| -
/// |P∩z1|, so the word tail is counted here rather than by a second call.
/// The V5 triple kernel is this at count 9.
template <class S>
void ladder_final(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                  std::size_t stride,
                  const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                  const Word* TRIGEN_RESTRICT z0,
                  const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                  std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* pt = prefix + t * stride;
    typename S::Acc a0{};
    typename S::Acc a1{};
    std::size_t r = 0;
    for (; r + S::kWords <= n; r += S::kWords) {
      const typename S::V v = S::load(pt + r);
      a0 = S::acc_add(a0, S::and_(v, S::load(z0 + w_begin + r)));
      a1 = S::acc_add(a1, S::and_(v, S::load(z1 + w_begin + r)));
    }
    std::uint32_t c0 = S::acc_sum(a0);
    std::uint32_t c1 = S::acc_sum(a1);
    for (; r < n; ++r) {
      c0 += popcount32(pt[r] & z0[w_begin + r]);
      c1 += popcount32(pt[r] & z1[w_begin + r]);
    }
    ft[t * 3 + 0] += c0;
    ft[t * 3 + 1] += c1;
    ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
  }
}

/// Calls f(integral_constant<int, g>) for a window of 1 <= g <= Cap groups.
template <int Cap, class F>
inline void with_window(std::size_t g, F&& f) {
  if constexpr (Cap > 1) {
    if (g < static_cast<std::size_t>(Cap)) return with_window<Cap - 1>(g, f);
  }
  f(std::integral_constant<int, Cap>{});
}

/// Label groups left from lane p0 of `num_labels`, capped at Cap.
template <class S, int Cap>
inline std::size_t window_groups(std::size_t p0, std::size_t num_labels) {
  const std::size_t left = (num_labels - p0 + S::kWords - 1) / S::kWords;
  return left < static_cast<std::size_t>(Cap) ? left : Cap;
}

/// The G label groups of `acc` as G * kWords lane counts.
template <class S, int G>
inline void spill(const typename S::V (&acc)[G], Word (&lanes)[G * S::kWords]) {
  for (int g = 0; g < G; ++g) S::store(lanes + S::kWords * g, acc[g]);
}

/// Batch label pops over lanes [p_begin, p_last): one pass over the words,
/// each prefix word broadcast once against G label vectors.
template <class S, int G>
void label_pops_window(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                       std::size_t stride, const Word* TRIGEN_RESTRICT labels,
                       std::size_t p_begin, std::size_t p_last,
                       std::size_t lstride, std::size_t w_begin,
                       std::size_t w_end,
                       std::uint32_t* TRIGEN_RESTRICT label_pops) {
  for (std::size_t t = 0; t < count; ++t) {
    const Word* pt = prefix + t * stride;
    typename S::V acc[G];
    for (auto& a : acc) a = S::broadcast(0);
    for (std::size_t r = 0; r < w_end - w_begin; ++r) {
      if (pt[r] == 0) continue;  // prefix planes thin out at deeper rungs
      const Word* row = labels + (w_begin + r) * lstride + p_begin;
      const typename S::V b = S::broadcast(pt[r]);
      for (int g = 0; g < G; ++g) {
        acc[g] = S::add_lanes(
            acc[g], S::lane_popcnt(S::and_(b, S::load(row + S::kWords * g))));
      }
    }
    Word lanes[G * S::kWords];
    spill<S, G>(acc, lanes);
    for (std::size_t p = p_begin; p < p_last; ++p) {
      label_pops[t * lstride + p] += lanes[p - p_begin];
    }
  }
}

/// BatchLabelPopsKernel.  Vectorized over label lanes, not words, so there
/// is no word tail.
template <class S>
void batch_label_pops(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                      std::size_t stride, const Word* TRIGEN_RESTRICT labels,
                      std::size_t num_labels, std::size_t lstride,
                      std::size_t w_begin, std::size_t w_end,
                      std::uint32_t* TRIGEN_RESTRICT label_pops) {
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t g = window_groups<S, S::kLabelPopsWindow>(p0, num_labels);
    const std::size_t pe =
        p0 + S::kWords * g < num_labels ? p0 + S::kWords * g : num_labels;
    with_window<S::kLabelPopsWindow>(g, [&](auto G) {
      label_pops_window<S, G>(prefix, count, stride, labels, p0, pe, lstride,
                              w_begin, w_end, label_pops);
    });
    p0 = pe;
  }
}

/// Batch finalize over lanes [p_begin, p_last): u0/u1 and their broadcasts
/// are computed once per word and shared by every lane of the window.  The
/// first window (`totals`) also adds the totals table.
template <class S, int G>
void final_window(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                  std::size_t stride,
                  const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                  const std::uint32_t* TRIGEN_RESTRICT label_pops,
                  const Word* TRIGEN_RESTRICT z0,
                  const Word* TRIGEN_RESTRICT z1,
                  const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
                  std::size_t p_last, std::size_t lstride, std::size_t w_begin,
                  std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft,
                  std::size_t ft_stride, bool totals) {
  for (std::size_t t = 0; t < count; ++t) {
    const Word* pt = prefix + t * stride;
    typename S::V a0[G];
    typename S::V a1[G];
    for (int g = 0; g < G; ++g) a0[g] = a1[g] = S::broadcast(0);
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < w_end - w_begin; ++r) {
      const Word u0 = pt[r] & z0[w_begin + r];
      const Word u1 = pt[r] & z1[w_begin + r];
      if (totals) {
        c0 += popcount32(u0);
        c1 += popcount32(u1);
      }
      if ((u0 | u1) == 0) continue;
      const Word* row = labels + (w_begin + r) * lstride + p_begin;
      const typename S::V b0 = S::broadcast(u0);
      const typename S::V b1 = S::broadcast(u1);
      for (int g = 0; g < G; ++g) {
        const typename S::V l = S::load(row + S::kWords * g);
        a0[g] = S::add_lanes(a0[g], S::lane_popcnt(S::and_(b0, l)));
        a1[g] = S::add_lanes(a1[g], S::lane_popcnt(S::and_(b1, l)));
      }
    }
    if (totals) {
      ft[t * 3 + 0] += c0;
      ft[t * 3 + 1] += c1;
      ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
    }
    // Partition identity per label lane: the genotype-2 case cell is the
    // chunk's |prefix ∩ L_p| minus the two counted case cells.
    Word l0[G * S::kWords];
    Word l1[G * S::kWords];
    spill<S, G>(a0, l0);
    spill<S, G>(a1, l1);
    for (std::size_t p = p_begin; p < p_last; ++p) {
      const std::uint32_t v0 = l0[p - p_begin];
      const std::uint32_t v1 = l1[p - p_begin];
      std::uint32_t* ftp = ft + (1 + p) * ft_stride + t * 3;
      ftp[0] += v0;
      ftp[1] += v1;
      ftp[2] += label_pops[t * lstride + p] - v0 - v1;
    }
  }
}

/// BatchFinalKernel.
template <class S>
void batch_final(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                 std::size_t stride,
                 const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                 const std::uint32_t* TRIGEN_RESTRICT label_pops,
                 const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
                 const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
                 std::size_t lstride, std::size_t w_begin, std::size_t w_end,
                 std::uint32_t* TRIGEN_RESTRICT ft, std::size_t ft_stride) {
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t g = window_groups<S, S::kFinalWindow>(p0, num_labels);
    const std::size_t pe =
        p0 + S::kWords * g < num_labels ? p0 + S::kWords * g : num_labels;
    with_window<S::kFinalWindow>(g, [&](auto G) {
      final_window<S, G>(prefix, count, stride, prefix_pops, label_pops, z0,
                         z1, labels, p0, pe, lstride, w_begin, w_end, ft,
                         ft_stride, p0 == 0);
    });
    p0 = pe;
  }
}

// ---------------------------------------------------------------------------
// The registry's signatures over the bodies
// ---------------------------------------------------------------------------

template <class S>
void triple_block(const Word* x0, const Word* x1, const Word* y0,
                  const Word* y1, const Word* z0, const Word* z1,
                  std::size_t w_begin, std::size_t w_end, std::uint32_t* ft27) {
  const Word* g0[3] = {x0, y0, z0};
  const Word* g1[3] = {x1, y1, z1};
  direct<S, 3>(g0, g1, w_begin, w_end, ft27);
}

template <class S>
void pair_count(const Word* x0, const Word* x1, const Word* y0,
                const Word* y1, std::size_t w_begin, std::size_t w_end,
                std::uint32_t* xy_pop9) {
  const Word* g0[2] = {x0, y0};
  const Word* g1[2] = {x1, y1};
  direct<S, 2>(g0, g1, w_begin, w_end, xy_pop9);
}

template <class S>
void triple_cached(const Word* xy, std::size_t stride,
                   const std::uint32_t* xy_pop9, const Word* z0,
                   const Word* z1, std::size_t w_begin, std::size_t w_end,
                   std::uint32_t* ft27) {
  // Prefix p = gx*3 + gy lands on cells 3p + gz = gx*9 + gy*3 + gz.
  ladder_final<S>(xy, 9, stride, xy_pop9, z0, z1, w_begin, w_end, ft27);
}

/// TupleBlockKernel: the runtime order k in [2, K] picks direct<S, k>.
template <class S, unsigned K = combinatorics::kMaxOrder>
void tuple_block(const Word* const* g0, const Word* const* g1, unsigned k,
                 std::size_t w_begin, std::size_t w_end, std::uint32_t* ft) {
  if constexpr (K > 2) {
    if (k < K) return tuple_block<S, K - 1>(g0, g1, k, w_begin, w_end, ft);
  }
  direct<S, K>(g0, g1, w_begin, w_end, ft);
}

template <class S>
constexpr KernelTable kernel_table() {
  return {&triple_block<S>,
          {&pair_plane_build<S>, &triple_cached<S>, &pair_count<S>},
          {&ladder_extend<S>, &ladder_final<S>, &tuple_block<S>},
          {&batch_label_pops<S>, &batch_final<S>}};
}

}  // namespace
}  // namespace trigen::core::detail

// CubeArena: a structure-of-arrays pool for ternary cubes, plus the
// word-parallel batch kernels the hot paths run on.
//
// HeaderSpace's cube algebra (rule-graph construction, input_space
// recomputation under churn, linting) used to allocate a fresh
// std::vector<TernaryString> per intermediate result; profiling showed the
// allocator and the AoS layout — not the algorithms — dominating. The arena
// stores the cube population as four dense, cache-line-aligned word streams
//
//   b0[i] b1[i]   value words  (bits 0..63 / 64..127 of cube i)
//   m0[i] m1[i]   mask words   (1 = exact, 0 = wildcard; bits ⊆ mask)
//
// addressed by index-based CubeRef handles. Batch kernels (covers_any,
// intersect_all, subtract_into) stream over the arrays with per-word
// early-outs, and TernaryString stays available as a thin view (view()) so
// callers migrate incrementally.
//
// Every kernel replicates the scalar TernaryString/HeaderSpace semantics
// exactly — including cube_difference's ascending-bit split order and
// add_cube's "skip if an existing cube covers the new one" dedup — so
// arena-backed results are cube-for-cube identical to the scalar path
// (tests/cube_arena_test.cc holds that line).
//
// Arenas are reused as per-thread scratch: reset() rewinds without freeing,
// so steady-state churn performs zero allocations. Kernels never call back
// into HeaderSpace, which keeps the thread_local scratch non-reentrant-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hsa/ternary.h"

namespace sdnprobe::hsa {

// Index of a cube inside a CubeArena.
using CubeRef = std::uint32_t;

class CubeArena {
 public:
  static constexpr int kWords = 2;
  static_assert(kWords * 64 == TernaryString::kMaxWidth);

  explicit CubeArena(int width = 0) : width_(width) {}
  ~CubeArena();

  CubeArena(CubeArena&& o) noexcept;
  CubeArena& operator=(CubeArena&& o) noexcept;
  CubeArena(const CubeArena&) = delete;
  CubeArena& operator=(const CubeArena&) = delete;

  int width() const { return width_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }

  // Rewinds to empty and (re)pins the cube width. Keeps the allocation.
  void reset(int width) {
    size_ = 0;
    width_ = width;
  }
  void clear() { size_ = 0; }

  CubeRef push(const TernaryString& t);
  CubeRef push_words(std::uint64_t b0, std::uint64_t b1, std::uint64_t m0,
                     std::uint64_t m1);

  // Materializes cube i as a TernaryString view (a copy of 4 words).
  TernaryString view(std::size_t i) const;

  // Appends all cubes, in arena order, to `out`.
  void append_to(std::vector<TernaryString>& out) const;

  // Raw streams (cache-line aligned). Valid for indices [0, size()).
  const std::uint64_t* bits0() const { return b0_; }
  const std::uint64_t* bits1() const { return b1_; }
  const std::uint64_t* mask0() const { return m0_; }
  const std::uint64_t* mask1() const { return m1_; }

 private:
  friend void simplify_cubes(CubeArena&, std::size_t);

  void ensure(std::size_t n);
  void release();

  int width_ = 0;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::uint64_t* b0_ = nullptr;
  std::uint64_t* b1_ = nullptr;
  std::uint64_t* m0_ = nullptr;
  std::uint64_t* m1_ = nullptr;
};

// True when some cube in a[first, last) covers c (c ⊆ that single cube).
// Word-parallel equivalent of `any_of(cubes, [&](x){ return x.covers(c); })`.
bool covers_any(const CubeArena& a, std::size_t first, std::size_t last,
                const TernaryString& c);

// True when some cube in a[first, last) intersects c.
bool intersects_any(const CubeArena& a, std::size_t first, std::size_t last,
                    const TernaryString& c);

// Appends src[i] ∩ c to dst for every i in [first, last) with a non-empty
// intersection, in index order, skipping a result cube already covered by
// some cube in dst (HeaderSpace::add_cube semantics). Returns the number of
// cubes appended. src and dst may not alias.
std::size_t intersect_all(const CubeArena& src, std::size_t first,
                          std::size_t last, const TernaryString& c,
                          CubeArena& dst);

// Appends src[i] − b (the HSA cube-splitting difference, ascending bit
// order) to dst for every i in [first, last). With dedup, each piece goes
// through add_cube-style subsumption against everything already in dst.
// src and dst may not alias.
void subtract_into(const CubeArena& src, std::size_t first, std::size_t last,
                   const TernaryString& b, CubeArena& dst, bool dedup);

// Single-cube variant: appends a − b to dst, with add_cube-style
// subsumption.
void subtract_cube_into(const TernaryString& a, const TernaryString& b,
                        CubeArena& dst);

// Whole-space difference src − sub, left in dst (dst is reset first).
// Fold of subtract_into over the cubes of `sub`, double-buffered through
// `tmp`, with the same interleaved-simplify schedule as
// HeaderSpace::subtract(HeaderSpace), so the resulting cube list is
// cube-for-cube identical to that scalar path. Used by consumers that hold
// both operands as arenas already (e.g. analysis::Verifier's blackhole
// residuals). None of src/sub/dst/tmp may alias. Returns dst.size().
std::size_t subtract_space_into(const CubeArena& src, const CubeArena& sub,
                                CubeArena& dst, CubeArena& tmp);

// In-place subsumption cleanup of a[first, size): drops cube i when another
// cube covers it, compacting the survivors — HeaderSpace::simplify's result.
//
// The range must be the output of the deduplicating kernels above
// (intersect_all, subtract_cube_into, subtract_into with dedup): such lists
// have no earlier-slot-covers-later-slot pair and no equal cubes, so only
// later cubes can subsume earlier ones and one backward scan suffices. On a
// list without that property the result is silently wrong.
void simplify_cubes(CubeArena& a, std::size_t first = 0);

}  // namespace sdnprobe::hsa

#include "hsa/cube_arena.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace sdnprobe::hsa {
namespace {

constexpr std::size_t kAlign = 64;  // cache line

std::uint64_t* alloc_words(std::size_t n) {
  return static_cast<std::uint64_t*>(
      ::operator new(n * sizeof(std::uint64_t), std::align_val_t{kAlign}));
}

void free_words(std::uint64_t* p) {
  if (p) ::operator delete(p, std::align_val_t{kAlign});
}

// The kernels below are templated on kOne = "width fits one 64-bit word".
// Cubes of width <= 64 have zero high words by the TernaryString invariant,
// so the specialization halves the loads and ALU work of every subsumption
// scan — and those scans are where the O(n^2) time of the cube algebra goes.

// Cube (jb, jm) covers cube (cb, cm): every exact bit of j is exact in c
// with the same value. Early-out on the first failing word test; on random
// populations the first test resolves almost every pair, and the branch is
// highly predictable (almost always "no cover").
template <bool kOne>
inline bool covers_words(std::uint64_t jb0, std::uint64_t jb1,
                         std::uint64_t jm0, std::uint64_t jm1,
                         std::uint64_t cb0, std::uint64_t cb1,
                         std::uint64_t cm0, std::uint64_t cm1) {
  // One fused test per word: fewer branches, and the "not covered" outcome
  // (the overwhelmingly common one) resolves in a single predictable branch.
  if ((jm0 & ~cm0) | ((jb0 ^ cb0) & jm0)) return false;
  if constexpr (!kOne) {
    if ((jm1 & ~cm1) | ((jb1 ^ cb1) & jm1)) return false;
  }
  return true;
}

// Any cube in a[first, last) covers (b0,b1,m0,m1)?
template <bool kOne>
inline bool any_covers(const CubeArena& a, std::size_t first, std::size_t last,
                       std::uint64_t b0, std::uint64_t b1, std::uint64_t m0,
                       std::uint64_t m1) {
  const std::uint64_t* jb0 = a.bits0();
  const std::uint64_t* jb1 = a.bits1();
  const std::uint64_t* jm0 = a.mask0();
  const std::uint64_t* jm1 = a.mask1();
  for (std::size_t j = first; j < last; ++j) {
    if (covers_words<kOne>(jb0[j], kOne ? 0 : jb1[j], jm0[j],
                           kOne ? 0 : jm1[j], b0, b1, m0, m1)) {
      return true;
    }
  }
  return false;
}

// Some cube in dst[0, dst.size()) covers (b0,b1,m0,m1) — add_cube's dedup.
template <bool kOne>
inline bool covered_in(const CubeArena& dst, std::uint64_t b0, std::uint64_t b1,
                       std::uint64_t m0, std::uint64_t m1) {
  return any_covers<kOne>(dst, 0, dst.size(), b0, b1, m0, m1);
}

}  // namespace

CubeArena::~CubeArena() { release(); }

CubeArena::CubeArena(CubeArena&& o) noexcept
    : width_(o.width_),
      size_(o.size_),
      cap_(o.cap_),
      b0_(o.b0_),
      b1_(o.b1_),
      m0_(o.m0_),
      m1_(o.m1_) {
  o.size_ = o.cap_ = 0;
  o.b0_ = o.b1_ = o.m0_ = o.m1_ = nullptr;
}

CubeArena& CubeArena::operator=(CubeArena&& o) noexcept {
  if (this != &o) {
    release();
    width_ = o.width_;
    size_ = o.size_;
    cap_ = o.cap_;
    b0_ = o.b0_;
    b1_ = o.b1_;
    m0_ = o.m0_;
    m1_ = o.m1_;
    o.size_ = o.cap_ = 0;
    o.b0_ = o.b1_ = o.m0_ = o.m1_ = nullptr;
  }
  return *this;
}

void CubeArena::release() {
  free_words(b0_);
  free_words(b1_);
  free_words(m0_);
  free_words(m1_);
  b0_ = b1_ = m0_ = m1_ = nullptr;
  cap_ = size_ = 0;
}

void CubeArena::ensure(std::size_t n) {
  if (n <= cap_) return;
  std::size_t cap = cap_ ? cap_ * 2 : 64;
  while (cap < n) cap *= 2;
  std::uint64_t* nb0 = alloc_words(cap);
  std::uint64_t* nb1 = alloc_words(cap);
  std::uint64_t* nm0 = alloc_words(cap);
  std::uint64_t* nm1 = alloc_words(cap);
  if (size_) {
    std::memcpy(nb0, b0_, size_ * sizeof(std::uint64_t));
    std::memcpy(nb1, b1_, size_ * sizeof(std::uint64_t));
    std::memcpy(nm0, m0_, size_ * sizeof(std::uint64_t));
    std::memcpy(nm1, m1_, size_ * sizeof(std::uint64_t));
  }
  free_words(b0_);
  free_words(b1_);
  free_words(m0_);
  free_words(m1_);
  b0_ = nb0;
  b1_ = nb1;
  m0_ = nm0;
  m1_ = nm1;
  cap_ = cap;
}

CubeRef CubeArena::push(const TernaryString& t) {
  assert(t.width() == width_);
  return push_words(t.bits_word(0), t.bits_word(1), t.mask_word(0),
                    t.mask_word(1));
}

CubeRef CubeArena::push_words(std::uint64_t b0, std::uint64_t b1,
                              std::uint64_t m0, std::uint64_t m1) {
  ensure(size_ + 1);
  b0_[size_] = b0;
  b1_[size_] = b1;
  m0_[size_] = m0;
  m1_[size_] = m1;
  return static_cast<CubeRef>(size_++);
}

TernaryString CubeArena::view(std::size_t i) const {
  assert(i < size_);
  return TernaryString::from_words(width_, b0_[i], b1_[i], m0_[i], m1_[i]);
}

void CubeArena::append_to(std::vector<TernaryString>& out) const {
  // An exact reserve is only right for an empty vector. Onto a non-empty one
  // it would reallocate on every call and make repeated appends quadratic,
  // so growth there stays geometric.
  const std::size_t need = out.size() + size_;
  if (need > out.capacity()) {
    out.reserve(out.empty() ? need : std::max(need, 2 * out.capacity()));
  }
  for (std::size_t i = 0; i < size_; ++i) out.push_back(view(i));
}

bool covers_any(const CubeArena& a, std::size_t first, std::size_t last,
                const TernaryString& c) {
  const std::uint64_t cb0 = c.bits_word(0), cb1 = c.bits_word(1);
  const std::uint64_t cm0 = c.mask_word(0), cm1 = c.mask_word(1);
  return a.width() <= 64 ? any_covers<true>(a, first, last, cb0, cb1, cm0, cm1)
                         : any_covers<false>(a, first, last, cb0, cb1, cm0,
                                             cm1);
}

bool intersects_any(const CubeArena& a, std::size_t first, std::size_t last,
                    const TernaryString& c) {
  const std::uint64_t cb0 = c.bits_word(0), cb1 = c.bits_word(1);
  const std::uint64_t cm0 = c.mask_word(0), cm1 = c.mask_word(1);
  for (std::size_t j = first; j < last; ++j) {
    if ((a.bits0()[j] ^ cb0) & a.mask0()[j] & cm0) continue;
    if ((a.bits1()[j] ^ cb1) & a.mask1()[j] & cm1) continue;
    return true;
  }
  return false;
}

namespace {

template <bool kOne>
std::size_t intersect_all_impl(const CubeArena& src, std::size_t first,
                               std::size_t last, std::uint64_t cb0,
                               std::uint64_t cb1, std::uint64_t cm0,
                               std::uint64_t cm1, CubeArena& dst) {
  std::size_t appended = 0;
  for (std::size_t i = first; i < last; ++i) {
    const std::uint64_t ab0 = src.bits0()[i], am0 = src.mask0()[i];
    const std::uint64_t ab1 = kOne ? 0 : src.bits1()[i];
    const std::uint64_t am1 = kOne ? 0 : src.mask1()[i];
    // Disjoint: some bit exact in both with differing values.
    if ((ab0 ^ cb0) & am0 & cm0) continue;
    if constexpr (!kOne) {
      if ((ab1 ^ cb1) & am1 & cm1) continue;
    }
    const std::uint64_t rm0 = am0 | cm0, rm1 = am1 | cm1;
    const std::uint64_t rb0 = (ab0 | cb0) & rm0, rb1 = (ab1 | cb1) & rm1;
    if (covered_in<kOne>(dst, rb0, rb1, rm0, rm1)) continue;
    dst.push_words(rb0, rb1, rm0, rm1);
    ++appended;
  }
  return appended;
}

}  // namespace

std::size_t intersect_all(const CubeArena& src, std::size_t first,
                          std::size_t last, const TernaryString& c,
                          CubeArena& dst) {
  assert(&src != &dst);
  const std::uint64_t cb0 = c.bits_word(0), cb1 = c.bits_word(1);
  const std::uint64_t cm0 = c.mask_word(0), cm1 = c.mask_word(1);
  return src.width() <= 64
             ? intersect_all_impl<true>(src, first, last, cb0, cb1, cm0, cm1,
                                        dst)
             : intersect_all_impl<false>(src, first, last, cb0, cb1, cm0, cm1,
                                         dst);
}

namespace {

// a − b for one source cube given as raw words; appends pieces to dst.
template <bool kOne>
inline void subtract_words_into(std::uint64_t ab0, std::uint64_t ab1,
                                std::uint64_t am0, std::uint64_t am1,
                                const std::uint64_t bb[2],
                                const std::uint64_t bm[2], CubeArena& dst,
                                bool dedup) {
  std::uint64_t cb[2] = {ab0, kOne ? 0 : ab1};
  std::uint64_t cm[2] = {am0, kOne ? 0 : am1};
  // Disjoint from b: the difference is the cube itself.
  bool disjoint = ((cb[0] ^ bb[0]) & cm[0] & bm[0]) != 0;
  if constexpr (!kOne) {
    disjoint = disjoint || ((cb[1] ^ bb[1]) & cm[1] & bm[1]) != 0;
  }
  if (disjoint) {
    if (dedup && covered_in<kOne>(dst, cb[0], cb[1], cm[0], cm[1])) return;
    dst.push_words(cb[0], cb[1], cm[0], cm[1]);
    return;
  }
  // HSA cube split, ascending bit order (same order as cube_difference):
  // at each bit where b is exact and the running remainder wildcard, peel
  // off the half that disagrees with b. The final remainder lies inside b
  // and is dropped.
  constexpr int kW = kOne ? 1 : CubeArena::kWords;
  for (int w = 0; w < kW; ++w) {
    std::uint64_t diff = bm[w] & ~cm[w];
    while (diff) {
      const std::uint64_t bit = diff & (~diff + 1);  // lowest set bit
      diff &= diff - 1;
      // Piece: remainder with this bit pinned opposite to b.
      std::uint64_t pb[2] = {cb[0], cb[1]};
      std::uint64_t pm[2] = {cm[0], cm[1]};
      pm[w] |= bit;
      pb[w] |= ~bb[w] & bit;
      if (!(dedup && covered_in<kOne>(dst, pb[0], pb[1], pm[0], pm[1]))) {
        dst.push_words(pb[0], pb[1], pm[0], pm[1]);
      }
      // Remainder keeps b's value at this bit.
      cm[w] |= bit;
      cb[w] |= bb[w] & bit;
    }
  }
}

template <bool kOne>
void subtract_into_impl(const CubeArena& src, std::size_t first,
                        std::size_t last, const std::uint64_t bb[2],
                        const std::uint64_t bm[2], CubeArena& dst, bool dedup) {
  for (std::size_t i = first; i < last; ++i) {
    subtract_words_into<kOne>(src.bits0()[i], src.bits1()[i], src.mask0()[i],
                              src.mask1()[i], bb, bm, dst, dedup);
  }
}

}  // namespace

void subtract_cube_into(const TernaryString& a, const TernaryString& b,
                        CubeArena& dst) {
  const std::uint64_t bb[2] = {b.bits_word(0), b.bits_word(1)};
  const std::uint64_t bm[2] = {b.mask_word(0), b.mask_word(1)};
  if (a.width() <= 64) {
    subtract_words_into<true>(a.bits_word(0), a.bits_word(1), a.mask_word(0),
                              a.mask_word(1), bb, bm, dst, /*dedup=*/true);
  } else {
    subtract_words_into<false>(a.bits_word(0), a.bits_word(1), a.mask_word(0),
                               a.mask_word(1), bb, bm, dst, /*dedup=*/true);
  }
}

void subtract_into(const CubeArena& src, std::size_t first, std::size_t last,
                   const TernaryString& b, CubeArena& dst, bool dedup) {
  assert(&src != &dst);
  const std::uint64_t bb[2] = {b.bits_word(0), b.bits_word(1)};
  const std::uint64_t bm[2] = {b.mask_word(0), b.mask_word(1)};
  if (src.width() <= 64) {
    subtract_into_impl<true>(src, first, last, bb, bm, dst, dedup);
  } else {
    subtract_into_impl<false>(src, first, last, bb, bm, dst, dedup);
  }
}

namespace {

// HeaderSpace::simplify drops cube i when an earlier cube covers it, or a
// later cube strictly covers it. On the output of a deduplicating kernel no
// cube at an earlier slot covers a later one (covered_in would have rejected
// the later cube on append — and that also rules out equal cubes), so the
// verdict collapses to "drop i iff some j > i covers it". One backward
// strict scan; in-place compaction is safe because writes land at slots
// <= i while every read is at slots > i.
template <bool kOne>
std::size_t simplify_deduped(CubeArena& a, std::size_t first,
                             std::uint64_t* b0, std::uint64_t* b1,
                             std::uint64_t* m0, std::uint64_t* m1) {
  const std::size_t n = a.size();
  std::size_t out = first;
  for (std::size_t i = first; i < n; ++i) {
    const std::uint64_t ib0 = b0[i], ib1 = b1[i];
    const std::uint64_t im0 = m0[i], im1 = m1[i];
    if (any_covers<kOne>(a, i + 1, n, ib0, ib1, im0, im1)) continue;
    if (out != i) {
      b0[out] = ib0;
      b1[out] = ib1;
      m0[out] = im0;
      m1[out] = im1;
    }
    ++out;
  }
  return out;
}

}  // namespace

void simplify_cubes(CubeArena& a, std::size_t first) {
  if (a.size() < first + 2) return;
  std::uint64_t *b0 = a.b0_, *b1 = a.b1_, *m0 = a.m0_, *m1 = a.m1_;
  a.size_ = a.width() <= 64 ? simplify_deduped<true>(a, first, b0, b1, m0, m1)
                            : simplify_deduped<false>(a, first, b0, b1, m0, m1);
}

std::size_t subtract_space_into(const CubeArena& src, const CubeArena& sub,
                                CubeArena& dst, CubeArena& tmp) {
  assert(&src != &dst && &src != &tmp && &sub != &dst && &sub != &tmp &&
         &dst != &tmp);
  // Must match HeaderSpace::kSimplifyThreshold so the fold stays
  // cube-for-cube identical to HeaderSpace::subtract(HeaderSpace).
  constexpr std::size_t kSimplifyThreshold = 24;
  dst.reset(src.width());
  if (sub.empty()) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst.push_words(src.bits0()[i], src.bits1()[i], src.mask0()[i],
                     src.mask1()[i]);
    }
    return dst.size();
  }
  CubeArena* cur = &dst;
  CubeArena* nxt = &tmp;
  subtract_into(src, 0, src.size(), sub.view(0), *cur, /*dedup=*/true);
  for (std::size_t j = 1; j < sub.size() && !cur->empty(); ++j) {
    nxt->reset(src.width());
    subtract_into(*cur, 0, cur->size(), sub.view(j), *nxt, /*dedup=*/true);
    std::swap(cur, nxt);
    if (cur->size() > kSimplifyThreshold) simplify_cubes(*cur);
  }
  simplify_cubes(*cur);
  if (cur != &dst) {
    dst.reset(src.width());
    for (std::size_t i = 0; i < cur->size(); ++i) {
      dst.push_words(cur->bits0()[i], cur->bits1()[i], cur->mask0()[i],
                     cur->mask1()[i]);
    }
  }
  return dst.size();
}

}  // namespace sdnprobe::hsa

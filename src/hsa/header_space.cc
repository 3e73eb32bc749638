#include "hsa/header_space.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace sdnprobe::hsa {
namespace {

// The cube kernels are templated on kOne = "width fits one 64-bit word".
// Cubes of width <= 64 have zero high words (a TernaryString invariant), so
// the specialization halves the word tests of every subsumption scan, which
// is where the O(n^2) time of the algebra goes. The tests are spelled out
// on raw words so that they inline into those scans.
template <typename F>
decltype(auto) by_width(int width, F&& f) {
  return width <= 64 ? f(std::true_type{}) : f(std::false_type{});
}

// Cube j covers cube c: every exact bit of j is exact in c with the same
// value. One fused test per word; "not covered" is the common outcome.
template <bool kOne>
bool covers(const TernaryString& j, const TernaryString& c) {
  for (int w = 0; w < (kOne ? 1 : 2); ++w) {
    if ((j.mask_word(w) & ~c.mask_word(w)) |
        ((j.bits_word(w) ^ c.bits_word(w)) & j.mask_word(w))) {
      return false;
    }
  }
  return true;
}

// Some bit is exact in both cubes with differing values.
template <bool kOne>
bool disjoint(const TernaryString& a, const TernaryString& b) {
  for (int w = 0; w < (kOne ? 1 : 2); ++w) {
    if ((a.bits_word(w) ^ b.bits_word(w)) & a.mask_word(w) & b.mask_word(w)) {
      return true;
    }
  }
  return false;
}

// Appends c unless a cube already in `cubes` covers it. Lists built only
// this way have no cube covering a later one, and no equal cubes.
template <bool kOne>
void add_cube(std::vector<TernaryString>& cubes, const TernaryString& c) {
  for (const auto& x : cubes) {
    if (covers<kOne>(x, c)) return;
  }
  cubes.push_back(c);
}

// Appends a ∩ b through add_cube when the cubes meet.
template <bool kOne>
void add_intersection(std::vector<TernaryString>& cubes,
                      const TernaryString& a, const TernaryString& b) {
  if (disjoint<kOne>(a, b)) return;
  const std::uint64_t m0 = a.mask_word(0) | b.mask_word(0);
  const std::uint64_t m1 = a.mask_word(1) | b.mask_word(1);
  add_cube<kOne>(cubes, TernaryString::from_words(
                            a.width(), (a.bits_word(0) | b.bits_word(0)) & m0,
                            (a.bits_word(1) | b.bits_word(1)) & m1, m0, m1));
}

// Appends the pieces of a − b to `cubes` in cube_difference's order, each
// through add_cube when `dedup`.
template <bool kOne>
void add_difference(std::vector<TernaryString>& cubes, const TernaryString& a,
                    const TernaryString& b, bool dedup) {
  auto add = [&](const TernaryString& c) {
    if (dedup) {
      add_cube<kOne>(cubes, c);
    } else {
      cubes.push_back(c);
    }
  };
  if (disjoint<kOne>(a, b)) {
    add(a);
    return;
  }
  // At each bit, ascending, where b is exact and the running remainder
  // wildcard, peel off the half that disagrees with b. The final remainder
  // lies inside b and is dropped.
  std::uint64_t rb[2] = {a.bits_word(0), a.bits_word(1)};
  std::uint64_t rm[2] = {a.mask_word(0), a.mask_word(1)};
  for (int w = 0; w < (kOne ? 1 : 2); ++w) {
    std::uint64_t split = b.mask_word(w) & ~rm[w];
    while (split != 0) {
      const std::uint64_t bit = split & (~split + 1);  // lowest set bit
      split &= split - 1;
      std::uint64_t pb[2] = {rb[0], rb[1]};
      std::uint64_t pm[2] = {rm[0], rm[1]};
      pm[w] |= bit;
      pb[w] |= ~b.bits_word(w) & bit;
      add(TernaryString::from_words(a.width(), pb[0], pb[1], pm[0], pm[1]));
      rm[w] |= bit;
      rb[w] |= b.bits_word(w) & bit;
    }
  }
}

// Drops, in place, every cube that a later cube covers. On an add_cube-built
// list, or a subsequence of one, no cube covers a later one, so the result
// has no cube covering another. Compaction is safe: writes land at slots
// <= i while every read is at a slot > i.
template <bool kOne>
void simplify(std::vector<TernaryString>& cubes) {
  const std::size_t n = cubes.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool covered = false;
    for (std::size_t j = i + 1; j < n && !covered; ++j) {
      covered = covers<kOne>(cubes[j], cubes[i]);
    }
    if (covered) continue;
    if (kept != i) cubes[kept] = cubes[i];
    ++kept;
  }
  cubes.resize(kept);
}

// No cube of `cubes` covers another. O(n^2): the debug check of the
// one-cube subtract() fold, whose result skips cleanup.
template <bool kOne>
bool subsumption_clean(const std::vector<TernaryString>& cubes) {
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (i != j && covers<kOne>(cubes[j], cubes[i])) return false;
    }
  }
  return true;
}

// Per-thread working lists. Every operation copies its result out before
// returning, and no kernel calls back into HeaderSpace, so reuse across
// calls is safe; capacity is kept between calls.
struct Scratch {
  std::vector<TernaryString> a;
  std::vector<TernaryString> b;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

// Lex order on concrete headers: the first differing bit (lowest index,
// i.e. lowest word bit) decides, and the header holding 0 there is smaller.
bool lex_less(const TernaryString& a, const TernaryString& b) {
  for (int w = 0; w < TernaryString::kMaxWidth / 64; ++w) {
    const std::uint64_t diff = a.bits_word(w) ^ b.bits_word(w);
    if (diff != 0) return ((a.bits_word(w) >> std::countr_zero(diff)) & 1) == 0;
  }
  return false;
}

// Smallest point of `cube` outside `excluded`, walking the cube in lex order.
std::optional<TernaryString> cube_min_member(
    const TernaryString& cube,
    const std::unordered_set<TernaryString, TernaryStringHash>& excluded) {
  TernaryString h = cube;
  std::vector<int> wild;
  for (int k = 0; k < h.width(); ++k) {
    if (h.get(k) != Trit::kWild) continue;
    wild.push_back(k);
    h.set(k, Trit::kZero);
  }
  while (excluded.count(h) != 0) {
    // Binary increment over the wildcards, highest index least significant;
    // a carry out of the lowest wildcard means the cube is used up.
    auto k = wild.rbegin();
    for (; k != wild.rend() && h.get(*k) == Trit::kOne; ++k) {
      h.set(*k, Trit::kZero);
    }
    if (k == wild.rend()) return std::nullopt;
    h.set(*k, Trit::kOne);
  }
  return h;
}

}  // namespace

HeaderSpace::HeaderSpace(TernaryString cube) : width_(cube.width()) {
  cubes_.push_back(std::move(cube));
}

HeaderSpace HeaderSpace::full(int width) {
  return HeaderSpace(TernaryString::wildcard(width));
}

bool HeaderSpace::contains(const TernaryString& h) const {
  for (const auto& c : cubes_) {
    if (c.covers(h)) return true;
  }
  return false;
}

bool HeaderSpace::covers_cube(const TernaryString& c) const {
  // c ⊆ this  <=>  c − this == ∅, walked depth first. The pieces of a
  // difference fold are pairwise disjoint, so add_cube dedup could never
  // drop one; what bounds the work is stopping at the first piece that no
  // remaining cube meets, which shows c is not covered.
  return by_width(c.width(), [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    Scratch& s = scratch();
    std::vector<TernaryString>& pieces = s.a;
    thread_local std::vector<std::size_t> next;  // per piece: cubes_ index
    pieces.assign(1, c);
    next.assign(1, 0);
    while (!pieces.empty()) {
      const TernaryString piece = pieces.back();
      std::size_t i = next.back();
      pieces.pop_back();
      next.pop_back();
      while (i < cubes_.size() && disjoint<kOne>(piece, cubes_[i])) ++i;
      if (i == cubes_.size()) return false;
      add_difference<kOne>(pieces, piece, cubes_[i], /*dedup=*/false);
      next.resize(pieces.size(), i + 1);
    }
    return true;
  });
}

HeaderSpace HeaderSpace::union_with(const HeaderSpace& o) const {
  assert(width_ == o.width_ || is_empty() || o.is_empty());
  const int w = width_ ? width_ : o.width_;
  return by_width(w, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    std::vector<TernaryString>& work = scratch().a;
    work.assign(cubes_.begin(), cubes_.end());
    for (const auto& c : o.cubes_) add_cube<kOne>(work, c);
    simplify<kOne>(work);
    return HeaderSpace(w, work);
  });
}

HeaderSpace HeaderSpace::intersect(const HeaderSpace& o) const {
  const int w = width_ ? width_ : o.width_;
  return by_width(w, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    std::vector<TernaryString>& work = scratch().a;
    work.clear();
    for (const auto& a : cubes_) {
      for (const auto& b : o.cubes_) add_intersection<kOne>(work, b, a);
    }
    simplify<kOne>(work);
    return HeaderSpace(w, work);
  });
}

HeaderSpace HeaderSpace::intersect(const TernaryString& cube) const {
  const int w = width_ ? width_ : cube.width();
  return by_width(w, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    std::vector<TernaryString>& work = scratch().a;
    work.clear();
    for (const auto& a : cubes_) add_intersection<kOne>(work, a, cube);
    simplify<kOne>(work);
    return HeaderSpace(w, work);
  });
}

std::vector<TernaryString> cube_difference(const TernaryString& a,
                                           const TernaryString& b) {
  if (!a.intersects(b)) return {a};
  // Split a along each bit where b is exact but the running remainder is
  // wildcard: peel off the half that disagrees with b. What is left at the
  // end agrees with b on all of b's exact bits, i.e. lies inside b — drop it.
  std::vector<TernaryString> out;
  TernaryString cur = a;
  for (int k = 0; k < a.width(); ++k) {
    const Trit bk = b.get(k);
    if (bk == Trit::kWild) continue;
    if (cur.get(k) != Trit::kWild) continue;  // intersects(b) => values agree
    TernaryString piece = cur;
    piece.set(k, bk == Trit::kOne ? Trit::kZero : Trit::kOne);
    out.push_back(piece);
    cur.set(k, bk);
  }
  return out;
}

HeaderSpace HeaderSpace::subtract(const TernaryString& cube) const {
  return subtract(std::span<const TernaryString>(&cube, 1));
}

HeaderSpace HeaderSpace::subtract(const HeaderSpace& o) const {
  return subtract(std::span<const TernaryString>(o.cubes_));
}

HeaderSpace HeaderSpace::subtract(std::span<const TernaryString> cubes) const {
  if (cubes_.empty() || cubes.empty()) return *this;
  // Fold of single-cube differences. From one cube, every working list is
  // pairwise disjoint: the pieces of a − b are disjoint and lie inside a.
  // Disjoint cubes never cover each other, so add_cube dedup and cleanup
  // could drop nothing and are skipped. From several cubes, pieces go
  // through add_cube, and cleanup runs at the end and, before every later
  // step, whenever the working list crosses kSimplifyThreshold, bounding
  // cube-count blow-up on long chains; a cleaned list is a subsequence of
  // an add_cube-built one, so the next step keeps it clean.
  const bool disjoint_fold = cubes_.size() == 1;
  return by_width(width_, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    Scratch& s = scratch();
    std::vector<TernaryString>* cur = &s.a;
    std::vector<TernaryString>* nxt = &s.b;
    cur->assign(cubes_.begin(), cubes_.end());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      nxt->clear();
      for (const auto& a : *cur) {
        add_difference<kOne>(*nxt, a, cubes[i], /*dedup=*/!disjoint_fold);
      }
      std::swap(cur, nxt);
      if (cur->empty()) break;
      if (!disjoint_fold && i + 1 < cubes.size() &&
          cur->size() > kSimplifyThreshold) {
        simplify<kOne>(*cur);
      }
    }
    if (disjoint_fold) {
      SDNPROBE_DCHECK(subsumption_clean<kOne>(*cur))
          << "a one-cube fold left a cube covering another";
    } else {
      simplify<kOne>(*cur);
    }
    return HeaderSpace(width_, *cur);
  });
}

HeaderSpace HeaderSpace::transform(const TernaryString& set_field) const {
  return by_width(width_, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    std::vector<TernaryString>& work = scratch().a;
    work.clear();
    for (const auto& c : cubes_) add_cube<kOne>(work, c.transform(set_field));
    simplify<kOne>(work);
    return HeaderSpace(width_, work);
  });
}

HeaderSpace HeaderSpace::inverse_transform(
    const TernaryString& set_field) const {
  return by_width(width_, [&](auto one) {
    constexpr bool kOne = decltype(one)::value;
    std::vector<TernaryString>& work = scratch().a;
    work.clear();
    for (const auto& c : cubes_) {
      if (auto pre = c.inverse_transform(set_field)) add_cube<kOne>(work, *pre);
    }
    simplify<kOne>(work);
    return HeaderSpace(width_, work);
  });
}

std::optional<TernaryString> HeaderSpace::sample(util::Rng& rng) const {
  if (cubes_.empty()) return std::nullopt;
  // Volume-weighted cube choice. Volumes as doubles are fine: widths <= 128
  // and relative weights only need a few bits of precision.
  double total = 0.0;
  for (const auto& c : cubes_) total += std::ldexp(1.0, c.wildcard_count());
  double pick = rng.next_double() * total;
  for (const auto& c : cubes_) {
    pick -= std::ldexp(1.0, c.wildcard_count());
    if (pick <= 0.0) return c.sample(rng);
  }
  return cubes_.back().sample(rng);
}

std::optional<TernaryString> HeaderSpace::any_member() const {
  if (cubes_.empty()) return std::nullopt;
  TernaryString h = cubes_.front();
  for (int k = 0; k < h.width(); ++k) {
    if (h.get(k) == Trit::kWild) h.set(k, Trit::kZero);
  }
  return h;
}

std::optional<TernaryString> HeaderSpace::min_member(
    const std::unordered_set<TernaryString, TernaryStringHash>& excluded)
    const {
  std::optional<TernaryString> best;
  for (const auto& cube : cubes_) {
    auto h = cube_min_member(cube, excluded);
    if (h.has_value() && (!best.has_value() || lex_less(*h, *best))) {
      best = std::move(h);
    }
  }
  return best;
}

std::string HeaderSpace::to_string() const {
  if (cubes_.empty()) return "∅";
  std::string s;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i) s += " ∪ ";
    s += cubes_[i].to_string();
  }
  return s;
}

bool HeaderSpace::operator==(const HeaderSpace& o) const {
  // Semantic equality: mutual coverage.
  for (const auto& c : cubes_) {
    if (!o.covers_cube(c)) return false;
  }
  for (const auto& c : o.cubes_) {
    if (!covers_cube(c)) return false;
  }
  return true;
}

}  // namespace sdnprobe::hsa

#include "hsa/header_space.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "hsa/cube_arena.h"

namespace sdnprobe::hsa {
namespace {

// Per-thread scratch arenas for the cube algebra. Every public operation
// fully consumes the scratch before returning, and the arena kernels never
// call back into HeaderSpace, so reuse across calls (and across the
// double-buffered chains below) is safe. Capacity is retained between calls:
// steady-state churn recomputation allocates nothing.
struct Scratch {
  CubeArena a;
  CubeArena b;
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

HeaderSpace HeaderSpace::from_arena(const CubeArena& arena) {
  HeaderSpace r(arena.width());
  arena.append_to(r.cubes_);
  return r;
}

void HeaderSpace::assign_from(const CubeArena& arena) {
  cubes_.clear();
  arena.append_to(cubes_);
}

bool HeaderSpace::contains(const TernaryString& h) const {
  for (const auto& c : cubes_) {
    if (c.covers(h)) return true;
  }
  return false;
}

bool HeaderSpace::covers_cube(const TernaryString& c) const {
  // c ⊆ this  <=>  c − this == ∅. Double-buffered arena chain; no dedup, to
  // keep the piece lists exactly those of the scalar remainder algorithm.
  Scratch& s = scratch();
  CubeArena* cur = &s.a;
  CubeArena* nxt = &s.b;
  cur->reset(c.width());
  cur->push(c);
  for (const auto& mine : cubes_) {
    nxt->reset(c.width());
    subtract_into(*cur, 0, cur->size(), mine, *nxt, /*dedup=*/false);
    std::swap(cur, nxt);
    if (cur->empty()) return true;
  }
  return cur->empty();
}

void HeaderSpace::add_cube(const TernaryString& c) {
  for (const auto& existing : cubes_) {
    if (existing.covers(c)) return;
  }
  cubes_.push_back(c);
}

HeaderSpace HeaderSpace::union_with(const HeaderSpace& o) const {
  assert(width_ == o.width_ || is_empty() || o.is_empty());
  HeaderSpace r = *this;
  if (r.width_ == 0) r.width_ = o.width_;
  for (const auto& c : o.cubes_) r.add_cube(c);
  r.simplify();
  return r;
}

HeaderSpace HeaderSpace::intersect(const HeaderSpace& o) const {
  const int w = width_ ? width_ : o.width_;
  Scratch& s = scratch();
  CubeArena& rhs = s.a;
  CubeArena& dst = s.b;
  rhs.reset(w);
  for (const auto& b : o.cubes_) rhs.push(b);
  dst.reset(w);
  for (const auto& a : cubes_) {
    intersect_all(rhs, 0, rhs.size(), a, dst);
  }
  simplify_cubes(dst);
  HeaderSpace r(w);
  r.assign_from(dst);
  return r;
}

HeaderSpace HeaderSpace::intersect(const TernaryString& cube) const {
  const int w = width_ ? width_ : cube.width();
  Scratch& s = scratch();
  CubeArena& lhs = s.a;
  CubeArena& dst = s.b;
  lhs.reset(w);
  for (const auto& a : cubes_) lhs.push(a);
  dst.reset(w);
  intersect_all(lhs, 0, lhs.size(), cube, dst);
  simplify_cubes(dst);
  HeaderSpace r(w);
  r.assign_from(dst);
  return r;
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
  Scratch& s = scratch();
  CubeArena& dst = s.a;
  dst.reset(width_);
  for (const auto& a : cubes_) {
    subtract_cube_into(a, cube, dst);
  }
  simplify_cubes(dst);
  HeaderSpace r(width_);
  r.assign_from(dst);
  return r;
}

HeaderSpace HeaderSpace::subtract(const HeaderSpace& o) const {
  if (cubes_.empty() || o.cubes_.empty()) return *this;
  // Fold of single-cube subtractions over double-buffered arena scratch.
  // Each step applies add_cube-style dedup; a full simplify() pass runs
  // whenever the working list crosses kSimplifyThreshold (and once at the
  // end), bounding cube-count blow-up on long chains.
  Scratch& s = scratch();
  CubeArena* cur = &s.a;
  CubeArena* nxt = &s.b;
  cur->reset(width_);
  for (const auto& c : cubes_) cur->push(c);
  for (const auto& b : o.cubes_) {
    nxt->reset(width_);
    subtract_into(*cur, 0, cur->size(), b, *nxt, /*dedup=*/true);
    std::swap(cur, nxt);
    if (cur->empty()) break;
    if (cur->size() > kSimplifyThreshold) {
      simplify_cubes(*cur);
    }
  }
  // Still dedup-clean here: simplify keeps a subsequence, which preserves
  // the no-earlier-covers-later property.
  simplify_cubes(*cur);
  HeaderSpace r(width_);
  r.assign_from(*cur);
  return r;
}

HeaderSpace HeaderSpace::transform(const TernaryString& set_field) const {
  HeaderSpace r(width_);
  for (const auto& c : cubes_) r.add_cube(c.transform(set_field));
  r.simplify();
  return r;
}

HeaderSpace HeaderSpace::inverse_transform(
    const TernaryString& set_field) const {
  HeaderSpace r(width_);
  for (const auto& c : cubes_) {
    if (auto pre = c.inverse_transform(set_field)) r.add_cube(*pre);
  }
  r.simplify();
  return r;
}

void HeaderSpace::simplify() {
  std::vector<TernaryString> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool covered = false;
    for (std::size_t j = 0; j < cubes_.size(); ++j) {
      if (i == j) continue;
      if (cubes_[j].covers(cubes_[i]) &&
          !(cubes_[i].covers(cubes_[j]) && j > i)) {
        // Drop i if j strictly covers it, or if they are equal keep only the
        // earlier one.
        covered = true;
        break;
      }
    }
    if (!covered) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
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

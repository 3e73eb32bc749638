// HeaderSpace: a set of packet headers represented as a union of ternary
// cubes, with the operations the paper's algorithms need:
//
//   r.in  = r.m − ∪_{q >o r} q.m          (difference, §V-A)
//   edge (ri, rj) iff ri.out ∩ rj.in ≠ ∅   (intersection + emptiness)
//   O_{i+1} = T(O_i ∩ r.in, r.s)          (legal-path propagation, Def. 1)
//   HS(ℓ) sampling for probe headers       (§V-B step 3, §V-C)
//
// Every space the API returns is subsumption-clean: no cube covers another.
// Operations build their result in a per-thread working list, adding each
// new cube only if no cube already there covers it, then drop the cubes a
// later one covers; on such a list one backward scan finds them all.
// Difference can grow the cube count, so a multi-cube subtract() also runs
// that cleanup whenever the working list crosses kSimplifyThreshold. A
// subtract() fold from a one-cube space needs neither step: its working
// lists stay pairwise disjoint, and disjoint cubes never cover each other.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "hsa/ternary.h"
#include "util/rng.h"

namespace sdnprobe::hsa {

class HeaderSpace {
 public:
  // Cube count past which subtract() interleaves subsumption cleanup while
  // folding a multi-cube subtrahend into a multi-cube space (guards against
  // cube blow-up on long subtraction chains). A fold from one cube has
  // nothing to clean and never runs it.
  static constexpr std::size_t kSimplifyThreshold = 24;

  // The empty set (width recorded for sanity checks; 0 = unspecified).
  explicit HeaderSpace(int width = 0) : width_(width) {}

  // The set denoted by one cube.
  explicit HeaderSpace(TernaryString cube);

  // The full space {x}^width.
  static HeaderSpace full(int width);
  static HeaderSpace empty(int width) { return HeaderSpace(width); }

  int width() const { return width_; }
  bool is_empty() const { return cubes_.empty(); }
  std::size_t cube_count() const { return cubes_.size(); }
  const std::vector<TernaryString>& cubes() const { return cubes_; }

  // True when the concrete header `h` belongs to the set.
  bool contains(const TernaryString& h) const;

  // True when this set covers every header of cube `c` (used by operator==
  // and the tests' equivalence checks). Exact; a depth-first split of c that
  // stops at the first piece no cube meets, so an uncovered c is cheap.
  bool covers_cube(const TernaryString& c) const;

  // Set union (cube list concatenation + subsumption cleanup).
  HeaderSpace union_with(const HeaderSpace& o) const;

  // Set intersection (pairwise cube intersection).
  HeaderSpace intersect(const HeaderSpace& o) const;
  HeaderSpace intersect(const TernaryString& cube) const;

  // Set difference this − o, the HSA cube-splitting algorithm. The span
  // form subtracts the union of `cubes`, folded in order, for callers whose
  // subtrahend is spread over several spaces; from a one-cube space it is
  // one disjoint fold with no cleanup, cube for cube the chain of
  // subtract(cube) calls.
  HeaderSpace subtract(const HeaderSpace& o) const;
  HeaderSpace subtract(const TernaryString& cube) const;
  HeaderSpace subtract(std::span<const TernaryString> cubes) const;

  // Applies the set-field transform T(·, s) to every cube.
  HeaderSpace transform(const TernaryString& set_field) const;

  // Pre-image under the set-field transform: headers h with T(h, s) ∈ this.
  // Used for backward legal-path propagation (computing the injectable
  // header space of a tested path).
  HeaderSpace inverse_transform(const TernaryString& set_field) const;

  // Samples one concrete header ~ proportionally to cube volume (exact when
  // cubes are disjoint; mildly biased toward overlaps otherwise, which is
  // fine for probe-header randomization). Returns nullopt when empty.
  std::optional<TernaryString> sample(util::Rng& rng) const;

  // Deterministically picks some member header (first cube, wildcards -> 0).
  std::optional<TernaryString> any_member() const;

  // The lexicographically smallest concrete header of (this − excluded),
  // H[0] compared first and 0 < 1; nullopt when every member is excluded.
  // This answers both of the paper's solver queries (§V-A: a header in
  // r.m − ∪ overlaps; §VI: a probe header unlike every used one) without a
  // CNF encoding. Each cube is walked in lex order — wildcards start at 0
  // and binary-increment, highest index least significant — until a point
  // outside `excluded` turns up, so a cube costs at most
  // |excluded ∩ cube| + 1 hash lookups. A pure function of (cubes,
  // excluded), hence identical for any caller history or thread count.
  std::optional<TernaryString> min_member(
      const std::unordered_set<TernaryString, TernaryStringHash>& excluded =
          {}) const;

  std::string to_string() const;

  bool operator==(const HeaderSpace& o) const;

 private:
  // A subsumption-clean working list, copied at exact size.
  HeaderSpace(int width, const std::vector<TernaryString>& cubes)
      : width_(width), cubes_(cubes.begin(), cubes.end()) {}

  int width_;
  std::vector<TernaryString> cubes_;
};

// Difference of two single cubes a − b as a cube list. Result cubes are
// pairwise disjoint.
std::vector<TernaryString> cube_difference(const TernaryString& a,
                                           const TernaryString& b);

}  // namespace sdnprobe::hsa

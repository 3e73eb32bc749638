// Unit + property tests for hsa::HeaderSpace: union/intersect/subtract
// algebra, the set-identities the rule-graph construction relies on,
// randomized membership cross-checks against a brute-force oracle, list-level
// cross-checks against the plain vector algorithms, and the lex-min member
// search that picks fallback probe headers.
#include "hsa/header_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "flow/table.h"
#include "util/rng.h"

namespace sdnprobe::hsa {
namespace {

TernaryString ts(const char* s) { return *TernaryString::parse(s); }

TEST(HeaderSpace, EmptyAndFull) {
  EXPECT_TRUE(HeaderSpace::empty(8).is_empty());
  const HeaderSpace full = HeaderSpace::full(8);
  EXPECT_FALSE(full.is_empty());
  EXPECT_TRUE(full.contains(ts("10110100")));
}

TEST(HeaderSpace, PaperRuleInputExample) {
  // §V-A: c2.in = 001xxxxx - 00100xxx (c1 has higher priority).
  const HeaderSpace in =
      HeaderSpace(ts("001xxxxx")).subtract(ts("00100xxx"));
  EXPECT_FALSE(in.is_empty());
  EXPECT_TRUE(in.contains(ts("00101000")));
  EXPECT_FALSE(in.contains(ts("00100111")));
  // b2.out ∩ c2.in != ∅  (edge (b2, c2) exists).
  EXPECT_FALSE(in.intersect(ts("0011xxxx")).is_empty());
  // e2.in = 001xxxxx - 0010xxxx; c1.out = 00100xxx misses it (no edge).
  const HeaderSpace e2_in =
      HeaderSpace(ts("001xxxxx")).subtract(ts("0010xxxx"));
  EXPECT_TRUE(e2_in.intersect(ts("00100xxx")).is_empty());
}

TEST(HeaderSpace, SubtractThenUnionRestores) {
  const HeaderSpace a = HeaderSpace(ts("01xxxxxx"));
  const TernaryString hole = ts("0110xxxx");
  const HeaderSpace punched = a.subtract(hole);
  EXPECT_FALSE(punched.contains(ts("01101111")));
  const HeaderSpace restored = punched.union_with(HeaderSpace(hole));
  EXPECT_TRUE(restored == a);
}

TEST(HeaderSpace, SubtractSelfIsEmpty) {
  const HeaderSpace a = HeaderSpace(ts("0x1x0xxx"));
  EXPECT_TRUE(a.subtract(a).is_empty());
}

TEST(HeaderSpace, SubtractDisjointIsIdentity) {
  const HeaderSpace a = HeaderSpace(ts("01xxxxxx"));
  EXPECT_TRUE(a.subtract(ts("10xxxxxx")) == a);
}

TEST(HeaderSpace, CubeDifferencePiecesAreDisjointAndExact) {
  const TernaryString a = ts("0xxxxxxx");
  const TernaryString b = ts("010x1xxx");
  const auto pieces = cube_difference(a, b);
  // Pairwise disjoint.
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      EXPECT_FALSE(pieces[i].intersects(pieces[j]));
    }
  }
  // No piece intersects b, and pieces ∪ (a ∩ b) == a.
  util::Rng rng(5);
  for (int it = 0; it < 256; ++it) {
    const TernaryString h = a.sample(rng);
    bool in_pieces = false;
    for (const auto& p : pieces) in_pieces |= p.covers(h);
    EXPECT_EQ(in_pieces, !b.covers(h)) << h.to_string();
  }
}

TEST(HeaderSpace, TransformDistributesOverUnion) {
  const TernaryString set = ts("1x0xxxxx");
  const HeaderSpace u =
      HeaderSpace(ts("00xxxxxx")).union_with(HeaderSpace(ts("11xxxxxx")));
  const HeaderSpace t = u.transform(set);
  EXPECT_TRUE(t.contains(ts("10011111").transform(set)));
  // Everything in the transform has the set bits pinned.
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    const auto h = t.sample(rng);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->get(0), Trit::kOne);
    EXPECT_EQ(h->get(2), Trit::kZero);
  }
}

TEST(HeaderSpace, InverseTransformRoundTrip) {
  const TernaryString set = ts("x1xx0xxx");
  const HeaderSpace post = HeaderSpace(ts("0100xxxx"));
  const HeaderSpace pre = post.inverse_transform(set);
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const auto h = pre.sample(rng);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(post.contains(h->transform(set)));
  }
}

TEST(HeaderSpace, SampleNulloptOnlyWhenEmpty) {
  util::Rng rng(1);
  EXPECT_FALSE(HeaderSpace::empty(8).sample(rng).has_value());
  EXPECT_TRUE(HeaderSpace::full(8).sample(rng).has_value());
}

TEST(HeaderSpace, SimplifyRemovesSubsumedCubes) {
  HeaderSpace u = HeaderSpace(ts("0xxxxxxx"));
  u = u.union_with(HeaderSpace(ts("00xxxxxx")));  // subsumed
  u = u.union_with(HeaderSpace(ts("01x1xxxx")));  // subsumed
  EXPECT_EQ(u.cube_count(), 1u);
}

// Property: (A − B) ∩ B == ∅ and (A − B) ∪ (A ∩ B) == A, on random cubes.
class SubtractProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubtractProperty, PartitionIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto random_cube = [&rng]() {
    TernaryString t = TernaryString::wildcard(12);
    for (int k = 0; k < 12; ++k) {
      const int r = static_cast<int>(rng.next_below(3));
      t.set(k, r == 0   ? Trit::kZero
              : r == 1 ? Trit::kOne
                       : Trit::kWild);
    }
    return t;
  };
  const HeaderSpace a = HeaderSpace(random_cube()).union_with(
      HeaderSpace(random_cube()));
  const TernaryString b = random_cube();
  const HeaderSpace diff = a.subtract(b);
  const HeaderSpace inter = a.intersect(b);
  EXPECT_TRUE(diff.intersect(b).is_empty());
  EXPECT_TRUE(diff.union_with(inter) == a);
}

INSTANTIATE_TEST_SUITE_P(RandomCubes, SubtractProperty,
                         ::testing::Range(0, 24));

// Regression for cube blow-up on chained subtractions: subtracting a union
// of many loosely-constrained cubes used to let the intermediate working
// list grow multiplicatively, with subsumption cleanup only at the end.
// subtract(HeaderSpace) now interleaves simplify passes whenever the fold
// crosses kSimplifyThreshold, so the result stays bounded — and must still
// denote exactly full − ∪holes.
TEST(HeaderSpace, ChainedSubtractionStaysBoundedAndExact) {
  util::Rng rng(11);
  const int w = 16;
  std::vector<TernaryString> holes;
  HeaderSpace sub(w);
  for (int i = 0; i < 40; ++i) {
    // 2–5 fixed bits each: wide cubes whose differences overlap heavily.
    TernaryString c = TernaryString::wildcard(w);
    const int fixed = 2 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fixed; ++f) {
      c.set(static_cast<int>(rng.next_below(w)),
            rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
    }
    holes.push_back(c);
    sub = sub.union_with(HeaderSpace(c));
  }
  const HeaderSpace result = HeaderSpace::full(w).subtract(sub);
  EXPECT_LE(result.cube_count(), 256u);

  // Membership oracle: h ∈ result iff no hole covers h.
  for (int i = 0; i < 512; ++i) {
    TernaryString h = TernaryString::wildcard(w);
    for (int k = 0; k < w; ++k) {
      h.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
    }
    bool in_hole = false;
    for (const auto& c : holes) in_hole |= c.covers(h);
    EXPECT_EQ(result.contains(h), !in_hole) << h.to_string();
  }

  // Same set as the fully-simplified per-cube fold.
  HeaderSpace fold = HeaderSpace::full(w);
  for (const auto& c : holes) fold = fold.subtract(c);
  EXPECT_TRUE(result == fold);
}

using HeaderSet = std::unordered_set<TernaryString, TernaryStringHash>;

// Brute-force oracle: the lexicographically smallest member of
// space − excluded at small widths (H[0] is the most significant bit of
// TernaryString::exact, so ascending integer order is ascending lex order).
std::optional<TernaryString> oracle_lex_min(const HeaderSpace& space,
                                            const HeaderSet& excluded) {
  const int w = space.width();
  for (std::uint64_t val = 0; val < (1ull << w); ++val) {
    const TernaryString h = TernaryString::exact(val, w);
    if (space.contains(h) && excluded.count(h) == 0) return h;
  }
  return std::nullopt;
}

TernaryString random_cube(util::Rng& rng, int width, double wild_p) {
  TernaryString t(width);
  for (int k = 0; k < width; ++k) {
    if (rng.next_bool(wild_p)) continue;  // keep wildcard
    t.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
  }
  return t;
}

// --- List-level cross-checks against the plain vector algorithms. ---
//
// HeaderSpace's kernels run on raw words, dedup on insert and clean up with
// one backward scan. The references below are the straightforward
// algorithms they replace: add_cube dedup, a two-direction subsumption pass,
// cube_difference splitting. Results must match cube for cube, not merely as
// sets: input spaces feed volume-weighted probe-header sampling, so a
// reordered list would change probe headers.

// Three cubes in four pin one to four random bits, so that differences
// split and pieces overlap; the rest are uniform over {0, 1, x}.
TernaryString mixed_cube(util::Rng& rng, int width) {
  if (rng.next_below(4) == 0) return random_cube(rng, width, 1.0 / 3);
  TernaryString t = TernaryString::wildcard(width);
  const int pins = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < pins; ++i) {
    t.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(width))),
          rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
  }
  return t;
}

// A space of up to `n` random cubes, built through union_with.
HeaderSpace random_space(util::Rng& rng, int width, int n) {
  HeaderSpace hs(width);
  for (int i = 0; i < n; ++i) {
    hs = hs.union_with(HeaderSpace(mixed_cube(rng, width)));
  }
  return hs;
}

using Cubes = std::vector<TernaryString>;

// Skip c when an existing cube covers it.
void ref_add_cube(Cubes& cubes, const TernaryString& c) {
  for (const auto& existing : cubes) {
    if (existing.covers(c)) return;
  }
  cubes.push_back(c);
}

// Drop cube i when another cube covers it, keeping the earlier of equal
// cubes. Valid on any list.
Cubes ref_simplify(const Cubes& cubes) {
  Cubes kept;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    bool subsumed = false;
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (i == j) continue;
      if (cubes[j].covers(cubes[i]) &&
          !(cubes[i].covers(cubes[j]) && j > i)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(cubes[i]);
  }
  return kept;
}

// from − cube, each piece through add_cube, then a full cleanup.
Cubes ref_subtract(const Cubes& from, const TernaryString& cube) {
  Cubes r;
  for (const auto& a : from) {
    for (const auto& piece : cube_difference(a, cube)) ref_add_cube(r, piece);
  }
  return ref_simplify(r);
}

// from − ∪sub: the per-cube fold with add_cube dedup, cleaned whenever the
// list crosses kSimplifyThreshold and once at the end. Counts the
// mid-fold cleanups in `cleanups`.
Cubes ref_subtract_space(const Cubes& from, const Cubes& sub,
                         int& cleanups) {
  if (from.empty() || sub.empty()) return from;
  Cubes cur = from;
  for (const auto& b : sub) {
    Cubes next;
    for (const auto& a : cur) {
      for (const auto& piece : cube_difference(a, b)) {
        ref_add_cube(next, piece);
      }
    }
    cur = std::move(next);
    if (cur.empty()) break;
    if (cur.size() > HeaderSpace::kSimplifyThreshold) {
      cur = ref_simplify(cur);
      ++cleanups;
    }
  }
  return ref_simplify(cur);
}

constexpr int kListWidths[] = {1, 12, 63, 64, 65, 100, 128};

TEST(HeaderSpace, SubtractCubeMatchesScalarListExactly) {
  util::Rng rng(7);
  int split = 0;
  for (const int w : kListWidths) {
    for (int it = 0; it < 48; ++it) {
      const HeaderSpace hs = random_space(rng, w, 1 + it % 4);
      const TernaryString b =
          it == 0 ? TernaryString::wildcard(w) : mixed_cube(rng, w);
      const Cubes expected = ref_subtract(hs.cubes(), b);
      EXPECT_EQ(hs.subtract(b).cubes(), expected)
          << "width " << w << " iteration " << it;
      split += expected.size() > hs.cube_count() ? 1 : 0;
    }
  }
  EXPECT_GT(split, 50) << "too few differences split a cube";
}

// The pieces of the cube list before cleanup: cube_difference of each cube
// in list order, each piece through add_cube.
Cubes deduped_pieces(const Cubes& from, const TernaryString& cube) {
  Cubes r;
  for (const auto& a : from) {
    for (const auto& piece : cube_difference(a, cube)) ref_add_cube(r, piece);
  }
  return r;
}

// subtract(cube) splits in cube_difference order and the cleanup only drops
// cubes, so its result is an ordered sublist of the deduped pieces, and
// equals them outright when no piece covers another.
TEST(HeaderSpace, SubtractCubeKeepsCubeDifferenceSplitOrder) {
  util::Rng rng(5);
  int untouched = 0;
  for (const int w : kListWidths) {
    for (int it = 0; it < 32; ++it) {
      const HeaderSpace hs = random_space(rng, w, 1 + it % 6);
      const TernaryString b =
          it == 0 ? TernaryString::wildcard(w) : mixed_cube(rng, w);
      const Cubes pieces = deduped_pieces(hs.cubes(), b);
      const Cubes got = hs.subtract(b).cubes();
      std::size_t j = 0;
      for (const auto& c : got) {
        while (j < pieces.size() && !(pieces[j] == c)) ++j;
        ASSERT_LT(j, pieces.size())
            << "width " << w << " iteration " << it << " cube "
            << c.to_string() << " is out of split order";
        ++j;
      }
      if (ref_simplify(pieces) == pieces) {
        EXPECT_EQ(got, pieces) << "width " << w << " iteration " << it;
        ++untouched;
      }
    }
  }
  EXPECT_GT(untouched, 150) << "too few piece lists needed no cleanup";
}

// The one backward scan over dedup output leaves no cube covered by another
// and drops the same cubes as the two-direction reference pass.
TEST(HeaderSpace, SubtractCubeCleanupMatchesTwoDirectionSimplify) {
  util::Rng rng(9);
  int cleaned = 0;
  for (const int w : kListWidths) {
    for (int it = 0; it < 24; ++it) {
      const HeaderSpace hs = random_space(rng, w, 8);
      const TernaryString b = mixed_cube(rng, w);
      const Cubes pieces = deduped_pieces(hs.cubes(), b);
      const Cubes got = hs.subtract(b).cubes();
      for (std::size_t i = 0; i < got.size(); ++i) {
        for (std::size_t k = 0; k < got.size(); ++k) {
          EXPECT_TRUE(i == k || !got[k].covers(got[i]))
              << "width " << w << " iteration " << it << ": "
              << got[k].to_string() << " covers " << got[i].to_string();
        }
      }
      EXPECT_EQ(got, ref_simplify(pieces))
          << "width " << w << " iteration " << it;
      cleaned += got.size() < pieces.size() ? 1 : 0;
    }
  }
  EXPECT_GT(cleaned, 10) << "too few piece lists needed cleanup";
}

TEST(HeaderSpace, SubtractSpaceMatchesScalarFoldExactly) {
  util::Rng rng(9);
  int cleanups = 0;
  for (const int w : kListWidths) {
    for (int it = 0; it < 16; ++it) {
      const HeaderSpace a = random_space(rng, w, 4);
      // Up to 6 subtrahend cubes, so long folds cross kSimplifyThreshold.
      Cubes sub;
      const int n = static_cast<int>(rng.next_below(7));
      for (int i = 0; i < n; ++i) sub.push_back(mixed_cube(rng, w));
      EXPECT_EQ(a.subtract(sub).cubes(),
                ref_subtract_space(a.cubes(), sub, cleanups))
          << "width " << w << " iteration " << it;
      // The HeaderSpace overload folds the subtrahend's own cube list.
      const HeaderSpace b = random_space(rng, w, 4);
      EXPECT_EQ(a.subtract(b).cubes(),
                ref_subtract_space(a.cubes(), b.cubes(), cleanups))
          << "width " << w << " iteration " << it;
    }
  }
  EXPECT_GT(cleanups, 50) << "too few folds crossed kSimplifyThreshold";
}

TEST(HeaderSpace, IntersectMatchesScalarListExactly) {
  util::Rng rng(4);
  for (const int w : kListWidths) {
    for (int it = 0; it < 32; ++it) {
      const HeaderSpace a = random_space(rng, w, 1 + it % 6);
      const TernaryString c =
          it == 0 ? TernaryString::wildcard(w) : mixed_cube(rng, w);
      Cubes by_cube;
      for (const auto& x : a.cubes()) {
        if (auto y = x.intersect(c)) ref_add_cube(by_cube, *y);
      }
      EXPECT_EQ(a.intersect(c).cubes(), ref_simplify(by_cube))
          << "width " << w << " iteration " << it;

      const HeaderSpace b = random_space(rng, w, 1 + it % 5);
      Cubes by_space;
      for (const auto& x : a.cubes()) {
        for (const auto& y : b.cubes()) {
          if (auto z = y.intersect(x)) ref_add_cube(by_space, *z);
        }
      }
      EXPECT_EQ(a.intersect(b).cubes(), ref_simplify(by_space))
          << "width " << w << " iteration " << it;
    }
  }
}

// union_with, transform and inverse_transform share the dedup-then-clean
// kernels with subtract and intersect.
TEST(HeaderSpace, UnionAndTransformsMatchScalarListExactly) {
  util::Rng rng(5);
  for (const int w : kListWidths) {
    for (int it = 0; it < 32; ++it) {
      const HeaderSpace a = random_space(rng, w, 1 + it % 5);
      const HeaderSpace b = random_space(rng, w, 1 + it % 4);
      Cubes joined = a.cubes();
      for (const auto& c : b.cubes()) ref_add_cube(joined, c);
      EXPECT_EQ(a.union_with(b).cubes(), ref_simplify(joined))
          << "width " << w << " iteration " << it;

      const TernaryString set = mixed_cube(rng, w);
      Cubes image;
      Cubes preimage;
      for (const auto& c : a.cubes()) {
        ref_add_cube(image, c.transform(set));
        if (auto pre = c.inverse_transform(set)) ref_add_cube(preimage, *pre);
      }
      EXPECT_EQ(a.transform(set).cubes(), ref_simplify(image))
          << "width " << w << " iteration " << it;
      EXPECT_EQ(a.inverse_transform(set).cubes(), ref_simplify(preimage))
          << "width " << w << " iteration " << it;
    }
  }
}

TEST(HeaderSpace, CoversCubeMatchesScalarRemainder) {
  util::Rng rng(2);
  int covered = 0;
  for (const int w : kListWidths) {
    // Six cubes with about four exact bits each, so that some probes are
    // covered by their union without being covered by any single cube.
    const double wild = 1.0 - std::min(0.5, 4.0 / w);
    HeaderSpace space(w);
    for (int i = 0; i < 6; ++i) {
      space = space.union_with(HeaderSpace(random_cube(rng, w, wild)));
    }
    for (int it = 0; it < 64; ++it) {
      const TernaryString probe =
          it == 0 ? TernaryString::wildcard(w) : random_cube(rng, w, 0.3);
      Cubes rest{probe};
      for (const auto& c : space.cubes()) {
        rest = ref_subtract(rest, c);
        if (rest.empty()) break;
      }
      EXPECT_EQ(space.covers_cube(probe), rest.empty())
          << "width " << w << " probe " << probe.to_string();
      covered += rest.empty() ? 1 : 0;
    }
  }
  EXPECT_GT(covered, 20) << "too few probes were covered";
}

// covers_cube at width 128 with six cubes of ~26 exact bits each and probes
// of ~64, checked against subtract. The full wildcard is checked on its own:
// six such cubes hold at most 6 * 2^-26 of the space, and subtract takes
// seconds to split the wildcard against them, while covers_cube stops at the
// first uncovered piece.
TEST(HeaderSpace, CoversCubeOnWideCubesAgreesWithSubtract) {
  util::Rng rng(26);
  constexpr int w = 128;
  const double wild = 1.0 - 26.0 / w;
  int covered = 0;
  for (int trial = 0; trial < 4; ++trial) {
    HeaderSpace scattered(w);
    for (int i = 0; i < 6; ++i) {
      scattered = scattered.union_with(HeaderSpace(random_cube(rng, w, wild)));
    }
    EXPECT_FALSE(scattered.covers_cube(TernaryString::wildcard(w)));
    // Three pairs of cubes that differ in one exact bit: each pair's union
    // covers the cube with that bit wildcarded, which neither cube does.
    HeaderSpace paired(w);
    std::vector<TernaryString> merged;
    for (int pair = 0; pair < 3; ++pair) {
      const TernaryString a = random_cube(rng, w, wild);
      int k = static_cast<int>(rng.next_below(w));
      while (a.get(k) == Trit::kWild) k = (k + 1) % w;
      TernaryString b = a;
      b.set(k, a.get(k) == Trit::kOne ? Trit::kZero : Trit::kOne);
      paired = paired.union_with(HeaderSpace(a)).union_with(HeaderSpace(b));
      TernaryString m = a;
      m.set(k, Trit::kWild);
      merged.push_back(m);
    }
    for (int it = 0; it < 64; ++it) {
      TernaryString probe = random_cube(rng, w, 0.5);
      if (it % 2 == 1) {
        // A merged cube with about half its wildcards fixed: covered by
        // the union of a pair only.
        probe = merged[rng.pick_index(merged.size())];
        for (int j = 0; j < w; ++j) {
          if (probe.get(j) == Trit::kWild && rng.next_bool(0.5)) {
            probe.set(j, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
          }
        }
      }
      for (const HeaderSpace* space : {&scattered, &paired}) {
        const bool want = HeaderSpace(probe).subtract(*space).is_empty();
        EXPECT_EQ(space->covers_cube(probe), want)
            << "trial " << trial << " probe " << probe.to_string();
        covered += want ? 1 : 0;
      }
    }
  }
  EXPECT_GE(covered, 64) << "too few probes were covered";
}

// FlowTable::input_space folds subtract(cube) over the table prefix; its
// result must be cube for cube the reference fold.
TEST(HeaderSpace, InputSpaceMatchesScalarFoldExactly) {
  util::Rng rng(8);
  for (const int w : kListWidths) {
    for (int it = 0; it < 8; ++it) {
      flow::FlowTable table;
      for (int i = 0; i < 24; ++i) {
        flow::FlowEntry e;
        e.id = i;
        e.priority = static_cast<int>(rng.next_below(4));
        // Prefix-style matches create deep overlap chains.
        TernaryString m = TernaryString::wildcard(w);
        const int plen = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(std::min(w, 8)) + 1));
        for (int k = 0; k < plen; ++k) {
          m.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
        }
        e.match = m;
        e.set_field = TernaryString::wildcard(w);
        table.insert(e);
      }
      for (const auto& target : table.entries()) {
        Cubes in{target.match};
        for (const auto& q : table.entries()) {
          if (&q == &target) break;
          if (!q.match.intersects(target.match)) continue;
          in = ref_subtract(in, q.match);
          if (in.empty()) break;
        }
        EXPECT_EQ(table.input_space(target.id).cubes(), in)
            << "width " << w << " entry " << target.id << " iteration " << it;
      }
    }
  }
}

// A cube pinning up to `pins` random bits of the window [off, off + len):
// folds of such cubes stay within the window's 2^len cells, so their cube
// lists stay small enough for the quadratic references.
TernaryString window_cube(util::Rng& rng, int width, int off, int len,
                          int pins) {
  TernaryString t = TernaryString::wildcard(width);
  for (int i = 0; i < pins; ++i) {
    t.set(off + static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(len))),
          rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
  }
  return t;
}

// A fold from one cube skips add_cube dedup and cleanup, since its working
// lists stay pairwise disjoint. Over 40-200 subtrahend cubes, long enough to
// cross kSimplifyThreshold many times, it must still match the fold that
// dedups and cleans, cube for cube.
TEST(HeaderSpace, OneCubeFoldMatchesScalarFoldExactly) {
  util::Rng rng(24);
  int cleanups = 0;
  int nonempty = 0;
  for (const int w : kListWidths) {
    const int len = std::min(w, 10);
    for (int it = 0; it < 6; ++it) {
      const int off = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(w - len + 1)));
      const TernaryString from =
          it == 0 ? TernaryString::wildcard(w) : mixed_cube(rng, w);
      Cubes sub;
      const int n = 40 + static_cast<int>(rng.next_below(161));
      for (int i = 0; i < n; ++i) {
        // Mostly narrow cubes, so that the fold rarely empties early.
        const int pins = rng.next_below(8) == 0 ? 3 : 10;
        sub.push_back(window_cube(rng, w, off, len, pins));
      }
      const Cubes got = HeaderSpace(from).subtract(sub).cubes();
      EXPECT_EQ(got, ref_subtract_space({from}, sub, cleanups))
          << "width " << w << " iteration " << it;
      nonempty += got.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(cleanups, 1000) << "too few folds crossed kSimplifyThreshold";
  EXPECT_GT(nonempty, 15) << "too many folds emptied";
}

// input_space folds a deep table prefix from the match in one call. A
// 200-entry prefix table where longer prefixes rank higher but four
// priorities cover eleven lengths, so many overlaps are equal-priority ties,
// must give every entry the per-step reference chain.
TEST(HeaderSpace, DeepPrefixTableInputSpaceMatchesScalarChain) {
  util::Rng rng(25);
  std::size_t longest = 0;
  for (const int w : kListWidths) {
    flow::FlowTable table;
    for (int i = 0; i < 200; ++i) {
      flow::FlowEntry e;
      e.id = i;
      TernaryString m = TernaryString::wildcard(w);
      const int plen = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(std::min(w, 10)) + 1));
      for (int k = 0; k < plen; ++k) {
        m.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
      }
      e.priority = plen / 3;
      e.match = m;
      e.set_field = TernaryString::wildcard(w);
      table.insert(e);
    }
    for (const auto& target : table.entries()) {
      Cubes in{target.match};
      for (const auto& q : table.entries()) {
        if (&q == &target) break;
        if (!q.match.intersects(target.match)) continue;
        in = ref_subtract(in, q.match);
        longest = std::max(longest, in.size());
        if (in.empty()) break;
      }
      EXPECT_EQ(table.input_space(target.id).cubes(), in)
          << "width " << w << " entry " << target.id;
    }
  }
  EXPECT_GT(longest, HeaderSpace::kSimplifyThreshold)
      << "no chain crossed kSimplifyThreshold";
}

TEST(HeaderSpace, MinMemberMatchesBruteForceOracle) {
  // Random unions and differences at widths 4-12. Each space is queried
  // repeatedly, excluding every answer so far plus a few random headers,
  // until it runs dry or 24 answers have been checked.
  util::Rng rng(77);
  int answers = 0;
  int exhausted = 0;
  for (int q = 0; q < 200; ++q) {
    const int w = 4 + static_cast<int>(rng.next_below(9));
    HeaderSpace space(w);
    const int cubes = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < cubes; ++i) {
      space = space.union_with(HeaderSpace(random_cube(rng, w, 0.6)));
    }
    if (rng.next_bool(0.5)) space = space.subtract(random_cube(rng, w, 0.5));

    HeaderSet excluded;
    for (int step = 0; step < 24; ++step) {
      const auto expected = oracle_lex_min(space, excluded);
      const auto got = space.min_member(excluded);
      ASSERT_EQ(expected.has_value(), got.has_value())
          << "query " << q << " step " << step << ": " << space.to_string();
      if (!expected.has_value()) {
        ++exhausted;
        break;
      }
      ASSERT_EQ(*got, *expected)
          << "query " << q << " step " << step << ": got "
          << got->to_string() << ", oracle " << expected->to_string();
      ++answers;
      excluded.insert(*got);
      if (rng.next_bool(0.3)) {
        excluded.insert(TernaryString::exact(rng.next_below(1ull << w), w));
      }
    }
  }
  EXPECT_GT(answers, 1000) << "workload degenerate: spaces almost all empty";
  EXPECT_GT(exhausted, 20) << "no space was ever queried dry";
}

TEST(HeaderSpace, MinMemberOfEmptySpaceIsNullopt) {
  EXPECT_FALSE(HeaderSpace::empty(8).min_member().has_value());
  EXPECT_FALSE(HeaderSpace(ts("01xxxxxx"))
                   .subtract(ts("0xxxxxxx"))
                   .min_member()
                   .has_value());
}

TEST(HeaderSpace, MinMemberExhaustsTinySpace) {
  // A 2-header space yields exactly its two headers, in order, then none.
  const HeaderSpace space(ts("0110101x"));
  HeaderSet used;
  EXPECT_EQ(space.min_member(used), ts("01101010"));
  used.insert(ts("01101010"));
  EXPECT_EQ(space.min_member(used), ts("01101011"));
  used.insert(ts("01101011"));
  EXPECT_FALSE(space.min_member(used).has_value());
}

TEST(HeaderSpace, MinMemberFindsHeaderInDifference) {
  // The §V-A query on the paper's example: c2.in = 001xxxxx − 00100xxx.
  const HeaderSpace in =
      HeaderSpace(ts("001xxxxx")).subtract(ts("00100xxx"));
  EXPECT_EQ(in.min_member(), ts("00101000"));
  // The smallest cube is not always listed first: the minimum is taken
  // over every cube.
  const HeaderSpace two =
      HeaderSpace(ts("1xxxxxxx")).union_with(HeaderSpace(ts("01xxxxx1")));
  ASSERT_EQ(two.cube_count(), 2u);
  EXPECT_EQ(two.min_member(), ts("01000001"));
}

TEST(HeaderSpace, MinMemberDeepOverlapChain) {
  // 65-deep nested prefixes over 96 bits (the campus §VIII-A regime): the
  // residual of the rule at depth d is prefix(d) − prefix(d+1), whose
  // smallest member is d ones, a zero, then zeros. Excluding that answer
  // moves the last wildcard (H[95], the least significant) to 1.
  constexpr int kWidth = 96;
  HeaderSpace chain = HeaderSpace::full(kWidth);
  TernaryString pinned = TernaryString::wildcard(kWidth);
  for (int depth = 0; depth < 65; ++depth) {
    pinned.set(depth, Trit::kOne);
    chain = chain.subtract(pinned);
  }
  // full − ∪ prefixes = 0xxx…: the all-zero header.
  EXPECT_EQ(chain.min_member(),
            TernaryString::parse(std::string(kWidth, '0')));

  TernaryString outer = TernaryString::wildcard(kWidth);
  for (int depth = 0; depth < 65; ++depth) {
    TernaryString inner = outer;
    inner.set(depth, Trit::kOne);
    const HeaderSpace residual = HeaderSpace(outer).subtract(inner);
    std::string expected(static_cast<std::size_t>(kWidth), '0');
    for (int k = 0; k < depth; ++k) expected[static_cast<std::size_t>(k)] = '1';
    const auto h = residual.min_member();
    ASSERT_TRUE(h.has_value()) << "depth " << depth;
    EXPECT_EQ(h->to_string(), expected) << "depth " << depth;

    HeaderSet used{*h};
    expected.back() = '1';
    const auto next = residual.min_member(used);
    ASSERT_TRUE(next.has_value()) << "depth " << depth;
    EXPECT_EQ(next->to_string(), expected) << "depth " << depth;
    outer = inner;
  }
}

}  // namespace
}  // namespace sdnprobe::hsa

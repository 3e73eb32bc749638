// Arena/view equivalence: the hsa::CubeArena batch kernels must agree with
// the scalar TernaryString operations cube-for-cube — not just set-equal.
// The arena is the engine under HeaderSpace and FlowTable::input_space, and
// input_space feeds volume-weighted probe-header sampling, so a list-level
// divergence would silently change probe headers. Randomized cross-checks
// here replicate the original scalar algorithms (add_cube dedup, simplify
// subsumption, cube_difference splitting) as in-test references.
#include "hsa/cube_arena.h"

#include <gtest/gtest.h>

#include <vector>

#include "flow/table.h"
#include "hsa/header_space.h"
#include "util/rng.h"

namespace sdnprobe::hsa {
namespace {

TernaryString random_cube(util::Rng& rng, int width) {
  TernaryString t = TernaryString::wildcard(width);
  for (int k = 0; k < width; ++k) {
    const int r = static_cast<int>(rng.next_below(3));
    t.set(k, r == 0   ? Trit::kZero
            : r == 1 ? Trit::kOne
                     : Trit::kWild);
  }
  return t;
}

std::vector<TernaryString> random_cubes(util::Rng& rng, int width,
                                        std::size_t n) {
  std::vector<TernaryString> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(random_cube(rng, width));
  return out;
}

// --- Scalar references: the original vector-of-TernaryString algorithms. ---

// HeaderSpace::add_cube: skip when an existing cube covers the new one.
void ref_add_cube(std::vector<TernaryString>& cubes, const TernaryString& c) {
  for (const auto& existing : cubes) {
    if (existing.covers(c)) return;
  }
  cubes.push_back(c);
}

// HeaderSpace::simplify: drop cube i when another cube j covers it, keeping
// the earlier of equal cubes.
std::vector<TernaryString> ref_simplify(
    const std::vector<TernaryString>& cubes) {
  std::vector<TernaryString> kept;
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

// Original HeaderSpace::subtract(cube) over an explicit cube list.
std::vector<TernaryString> ref_subtract(const std::vector<TernaryString>& from,
                                        const TernaryString& cube) {
  std::vector<TernaryString> r;
  for (const auto& a : from) {
    for (const auto& piece : cube_difference(a, cube)) ref_add_cube(r, piece);
  }
  return ref_simplify(r);
}

std::vector<TernaryString> arena_cubes(const CubeArena& a) {
  std::vector<TernaryString> out;
  a.append_to(out);
  return out;
}

constexpr int kWidths[] = {0, 1, 12, 63, 64, 65, 100, 128};

TEST(CubeArena, PushViewRoundTrip) {
  util::Rng rng(1);
  for (const int w : kWidths) {
    CubeArena arena(w);
    const auto cubes = random_cubes(rng, w, 33);
    for (const auto& c : cubes) arena.push(c);
    ASSERT_EQ(arena.size(), cubes.size());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      EXPECT_EQ(arena.view(i), cubes[i]) << "width " << w << " cube " << i;
    }
    // All-wildcard and reset round trips.
    arena.reset(w);
    arena.push(TernaryString::wildcard(w));
    EXPECT_EQ(arena.view(0), TernaryString::wildcard(w));
  }
}

TEST(CubeArena, RepeatedAppendToKeepsOrderAndGrowsGeometrically) {
  util::Rng rng(9);
  std::vector<TernaryString> out;
  std::vector<TernaryString> expected;
  CubeArena arena(40);
  std::size_t reallocations = 0;
  for (int call = 0; call < 4000; ++call) {
    arena.reset(40);
    for (const auto& c :
         random_cubes(rng, 40, 1 + static_cast<std::size_t>(call % 4))) {
      arena.push(c);
      expected.push_back(c);
    }
    const std::size_t capacity = out.capacity();
    arena.append_to(out);
    if (out.capacity() != capacity) ++reallocations;
  }
  EXPECT_EQ(out, expected);
  // 10,000 cubes: a doubling vector reallocates about log2(10,000) times;
  // an exact reserve per call would reallocate on every one of the 4,000.
  EXPECT_LE(reallocations, 20u);
}

TEST(CubeArena, CoversAnyAgreesWithScalar) {
  util::Rng rng(2);
  for (const int w : kWidths) {
    const auto cubes = random_cubes(rng, w, 24);
    CubeArena arena(w);
    for (const auto& c : cubes) arena.push(c);
    for (int it = 0; it < 64; ++it) {
      const TernaryString probe =
          it == 0 ? TernaryString::wildcard(w) : random_cube(rng, w);
      bool scalar = false;
      for (const auto& c : cubes) scalar |= c.covers(probe);
      EXPECT_EQ(covers_any(arena, 0, arena.size(), probe), scalar)
          << "width " << w << " probe " << probe.to_string();
    }
  }
}

TEST(CubeArena, IntersectsAnyAgreesWithScalar) {
  util::Rng rng(3);
  for (const int w : kWidths) {
    const auto cubes = random_cubes(rng, w, 24);
    CubeArena arena(w);
    for (const auto& c : cubes) arena.push(c);
    for (int it = 0; it < 64; ++it) {
      const TernaryString probe = random_cube(rng, w);
      bool scalar = false;
      for (const auto& c : cubes) scalar |= c.intersects(probe);
      EXPECT_EQ(intersects_any(arena, 0, arena.size(), probe), scalar);
    }
  }
}

TEST(CubeArena, IntersectAllAgreesWithScalar) {
  util::Rng rng(4);
  for (const int w : kWidths) {
    const auto cubes = random_cubes(rng, w, 24);
    CubeArena arena(w);
    for (const auto& c : cubes) arena.push(c);
    for (int it = 0; it < 32; ++it) {
      const TernaryString probe =
          it == 0 ? TernaryString::wildcard(w) : random_cube(rng, w);
      // The pairwise intersection list through add_cube.
      std::vector<TernaryString> deduped;
      for (const auto& c : cubes) {
        if (auto x = c.intersect(probe)) ref_add_cube(deduped, *x);
      }
      CubeArena dst(w);
      intersect_all(arena, 0, arena.size(), probe, dst);
      EXPECT_EQ(arena_cubes(dst), deduped);
    }
  }
}

TEST(CubeArena, SubtractIntoAgreesWithCubeDifference) {
  util::Rng rng(5);
  for (const int w : kWidths) {
    const auto cubes = random_cubes(rng, w, 16);
    CubeArena arena(w);
    for (const auto& c : cubes) arena.push(c);
    for (int it = 0; it < 32; ++it) {
      const TernaryString b =
          it == 0 ? TernaryString::wildcard(w) : random_cube(rng, w);
      // Without dedup: concatenated cube_difference piece lists.
      std::vector<TernaryString> plain;
      for (const auto& a : cubes) {
        for (const auto& piece : cube_difference(a, b)) plain.push_back(piece);
      }
      CubeArena dst(w);
      subtract_into(arena, 0, arena.size(), b, dst, /*dedup=*/false);
      EXPECT_EQ(arena_cubes(dst), plain);
      // With dedup: each piece through add_cube.
      std::vector<TernaryString> deduped;
      for (const auto& c : plain) ref_add_cube(deduped, c);
      dst.clear();
      subtract_into(arena, 0, arena.size(), b, dst, /*dedup=*/true);
      EXPECT_EQ(arena_cubes(dst), deduped);
    }
  }
}

// simplify_cubes is only valid on deduplicating kernel output (no earlier
// cube covers a later one); on such input it must match the scalar
// simplify exactly. Exercise it on real subtract_into output across widths.
TEST(CubeArena, SimplifyDedupedAgreesOnKernelOutput) {
  util::Rng rng(9);
  for (const int w : kWidths) {
    if (w == 0) continue;  // no cubes to split
    for (int it = 0; it < 24; ++it) {
      const auto cubes = random_cubes(rng, w, 8);
      CubeArena src(w);
      for (const auto& c : cubes) src.push(c);
      const TernaryString b = random_cube(rng, w);
      CubeArena dst(w);
      subtract_into(src, 0, src.size(), b, dst, /*dedup=*/true);
      const std::vector<TernaryString> produced = arena_cubes(dst);
      simplify_cubes(dst);
      EXPECT_EQ(arena_cubes(dst), ref_simplify(produced))
          << "width " << w << " iteration " << it;
    }
  }
}

// The arena-backed HeaderSpace::subtract(cube) must produce the exact cube
// list of the original scalar implementation (not merely the same set).
TEST(CubeArena, HeaderSpaceSubtractMatchesScalarListExactly) {
  util::Rng rng(7);
  for (const int w : {8, 12, 32}) {
    for (int it = 0; it < 48; ++it) {
      std::vector<TernaryString> cubes;
      HeaderSpace hs(w);
      for (int i = 0; i < 3; ++i) {
        const TernaryString c = random_cube(rng, w);
        hs = hs.union_with(HeaderSpace(c));
      }
      cubes = hs.cubes();
      const TernaryString b = random_cube(rng, w);
      EXPECT_EQ(hs.subtract(b).cubes(), ref_subtract(cubes, b));
    }
  }
}

// FlowTable::input_space runs the whole prefix-subtraction chain in arena
// scratch; its result must be cube-for-cube what the scalar fold produced.
TEST(CubeArena, InputSpaceMatchesScalarFoldExactly) {
  util::Rng rng(8);
  const int w = 16;
  for (int it = 0; it < 16; ++it) {
    flow::FlowTable table;
    const int n = 24;
    for (int i = 0; i < n; ++i) {
      flow::FlowEntry e;
      e.id = i;
      e.priority = static_cast<int>(rng.next_below(4));
      // Prefix-style matches create deep overlap chains.
      TernaryString m = TernaryString::wildcard(w);
      const int plen = static_cast<int>(rng.next_below(9));
      for (int k = 0; k < plen; ++k) {
        m.set(k, rng.next_bool(0.5) ? Trit::kOne : Trit::kZero);
      }
      e.match = m;
      e.set_field = TernaryString::wildcard(w);
      table.insert(e);
    }
    for (const auto& target : table.entries()) {
      // Scalar reference: the original fold of subtract() over the prefix.
      std::vector<TernaryString> in{target.match};
      for (const auto& q : table.entries()) {
        if (&q == &target) break;
        if (!q.match.intersects(target.match)) continue;
        in = ref_subtract(in, q.match);
        if (in.empty()) break;
      }
      EXPECT_EQ(table.input_space(target.id).cubes(), in)
          << "entry " << target.id << " iteration " << it;
    }
  }
}

// The whole-space fold kernel (analysis::Verifier's blackhole residuals)
// must reproduce HeaderSpace::subtract(HeaderSpace) cube-for-cube.
TEST(CubeArena, SubtractSpaceIntoMatchesHeaderSpaceSubtract) {
  util::Rng rng(9);
  for (const int w : {8, 16, 64, 100}) {
    for (int it = 0; it < 32; ++it) {
      HeaderSpace a(w);
      HeaderSpace b(w);
      for (int i = 0; i < 4; ++i) {
        a = a.union_with(HeaderSpace(random_cube(rng, w)));
        b = b.union_with(HeaderSpace(random_cube(rng, w)));
      }
      CubeArena src(w), sub(w), dst, tmp;
      for (const auto& c : a.cubes()) src.push(c);
      for (const auto& c : b.cubes()) sub.push(c);
      subtract_space_into(src, sub, dst, tmp);
      EXPECT_EQ(arena_cubes(dst), a.subtract(b).cubes())
          << "width " << w << " iteration " << it;

      // Empty-subtrahend fast path copies the source verbatim.
      CubeArena none(w), dst2, tmp2;
      subtract_space_into(src, none, dst2, tmp2);
      EXPECT_EQ(arena_cubes(dst2), a.cubes());
    }
  }
}

}  // namespace
}  // namespace sdnprobe::hsa

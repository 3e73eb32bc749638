// Unit tests for hsa::TernaryString: parsing, intersection, coverage,
// set-field transform and its inverse, and sampling — the primitives every
// higher layer builds on.
#include "hsa/ternary.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sdnprobe::hsa {
namespace {

TEST(TernaryString, ParseAndToStringRoundTrip) {
  const auto t = TernaryString::parse("0010xxxx");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->width(), 8);
  EXPECT_EQ(t->to_string(), "0010xxxx");
  EXPECT_EQ(t->get(0), Trit::kZero);
  EXPECT_EQ(t->get(2), Trit::kOne);
  EXPECT_EQ(t->get(4), Trit::kWild);
}

TEST(TernaryString, ParseRejectsBadInput) {
  EXPECT_FALSE(TernaryString::parse("01a").has_value());
  EXPECT_FALSE(TernaryString::parse(std::string(200, 'x')).has_value());
}

TEST(TernaryString, ParseAcceptsUppercaseWildcard) {
  const auto t = TernaryString::parse("0X1");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->get(1), Trit::kWild);
}

TEST(TernaryString, ExactBuildsBinaryRendering) {
  const auto t = TernaryString::exact(0b0010'1010, 8);
  EXPECT_EQ(t.to_string(), "00101010");
  EXPECT_TRUE(t.is_concrete());
  EXPECT_EQ(t.as_uint(), 0b0010'1010u);
}

TEST(TernaryString, PrefixMatchesTopBits) {
  const auto t = TernaryString::prefix(0xC0A80000u, 16, 32);
  EXPECT_EQ(t.to_string().substr(0, 16), "1100000010101000");
  EXPECT_EQ(t.wildcard_count(), 16);
}

TEST(TernaryString, WildcardIsAllWild) {
  const auto t = TernaryString::wildcard(12);
  EXPECT_EQ(t.wildcard_count(), 12);
  EXPECT_FALSE(t.is_concrete());
}

TEST(TernaryString, IntersectCompatible) {
  const auto a = *TernaryString::parse("00x1xxxx");
  const auto b = *TernaryString::parse("0011xxx0");
  const auto c = a.intersect(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->to_string(), "0011xxx0");
}

TEST(TernaryString, IntersectDisjoint) {
  const auto a = *TernaryString::parse("001xxxxx");
  const auto b = *TernaryString::parse("000xxxxx");
  EXPECT_FALSE(a.intersect(b).has_value());
  EXPECT_FALSE(a.intersects(b));
}

TEST(TernaryString, PaperExampleEdgeCheck) {
  // From §V-A: 0011xxxx ∩ 001xxxxx is non-empty...
  const auto b2_out = *TernaryString::parse("0011xxxx");
  const auto c2_match = *TernaryString::parse("001xxxxx");
  EXPECT_TRUE(b2_out.intersects(c2_match));
  // ...but 00100xxx ∩ 0011xxxx is empty.
  const auto e1_match = *TernaryString::parse("00100xxx");
  EXPECT_FALSE(b2_out.intersects(e1_match));
}

TEST(TernaryString, CoversIsSupersetRelation) {
  const auto wide = *TernaryString::parse("001xxxxx");
  const auto narrow = *TernaryString::parse("0010x1xx");
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
  EXPECT_TRUE(wide.covers(wide));
}

TEST(TernaryString, TransformAppliesSetField) {
  // Paper's d1 example: input 000xxxxx, set 0111xxxx -> output 0111xxxx.
  const auto in = *TernaryString::parse("000xxxxx");
  const auto set = *TernaryString::parse("0111xxxx");
  EXPECT_EQ(in.transform(set).to_string(), "0111xxxx");
}

TEST(TernaryString, TransformIdentityWithAllWildcardSetField) {
  const auto in = *TernaryString::parse("00x1x0x1");
  const auto id = TernaryString::wildcard(8);
  EXPECT_EQ(in.transform(id), in);
}

TEST(TernaryString, TransformOverwritesOnlySetBits) {
  const auto in = *TernaryString::parse("1010xxxx");
  const auto set = *TernaryString::parse("xx11xxxx");
  EXPECT_EQ(in.transform(set).to_string(), "1011xxxx");
}

TEST(TernaryString, InverseTransformRecoversPreimage) {
  const auto set = *TernaryString::parse("xx11xxxx");
  const auto post = *TernaryString::parse("1011xxxx");
  const auto pre = post.inverse_transform(set);
  ASSERT_TRUE(pre.has_value());
  // Bits written by the set field become unconstrained on the input side.
  EXPECT_EQ(pre->to_string(), "10xxxxxx");
}

TEST(TernaryString, InverseTransformDetectsContradiction) {
  const auto set = *TernaryString::parse("xx11xxxx");
  const auto post = *TernaryString::parse("1001xxxx");  // bit 2 must be 1
  EXPECT_FALSE(post.inverse_transform(set).has_value());
}

TEST(TernaryString, InverseTransformThenTransformLandsInside) {
  util::Rng rng(42);
  const auto set = *TernaryString::parse("x1x0xxxx");
  const auto post = *TernaryString::parse("x1xxxx01");
  const auto pre = post.inverse_transform(set);
  ASSERT_TRUE(pre.has_value());
  for (int i = 0; i < 32; ++i) {
    const auto h = pre->sample(rng);
    EXPECT_TRUE(post.covers(h.transform(set)));
  }
}

TEST(TernaryString, SampleStaysInsideCube) {
  util::Rng rng(7);
  const auto cube = *TernaryString::parse("0x1x0x1x");
  for (int i = 0; i < 64; ++i) {
    const auto h = cube.sample(rng);
    EXPECT_TRUE(h.is_concrete());
    EXPECT_TRUE(cube.covers(h));
  }
}

TEST(TernaryString, SampleVariesWildcardBits) {
  util::Rng rng(7);
  const auto cube = *TernaryString::parse("xxxxxxxx");
  bool saw_difference = false;
  const auto first = cube.sample(rng);
  for (int i = 0; i < 32 && !saw_difference; ++i) {
    saw_difference = !(cube.sample(rng) == first);
  }
  EXPECT_TRUE(saw_difference);
}

// The per-bit loop sample() used before its width mask: fill every
// wildcard word bit from two draws, then clear bits width..127 one by one.
TernaryString per_bit_reference_sample(const TernaryString& cube,
                                       util::Rng& rng) {
  std::uint64_t bits[2];
  std::uint64_t mask[2];
  for (int w = 0; w < 2; ++w) {
    bits[w] = cube.bits_word(w) | (rng.next() & ~cube.mask_word(w));
    mask[w] = ~0ULL;
  }
  for (int k = cube.width(); k < TernaryString::kMaxWidth; ++k) {
    mask[k >> 6] &= ~(1ULL << (k & 63));
    bits[k >> 6] &= ~(1ULL << (k & 63));
  }
  return TernaryString::from_words(cube.width(), bits[0], bits[1], mask[0],
                                   mask[1]);
}

TEST(TernaryString, SampleMatchesPerBitReference) {
  util::Rng cubes(11);
  for (int width = 0; width <= TernaryString::kMaxWidth; ++width) {
    for (int trial = 0; trial < 40; ++trial) {
      TernaryString cube(width);
      const double exact = cubes.next_double();
      for (int k = 0; k < width; ++k) {
        if (cubes.next_bool(exact)) {
          cube.set(k, cubes.next_bool(0.5) ? Trit::kOne : Trit::kZero);
        }
      }
      const std::uint64_t seed = cubes.next();
      util::Rng fast(seed);
      util::Rng reference(seed);
      const TernaryString h = cube.sample(fast);
      EXPECT_EQ(h, per_bit_reference_sample(cube, reference))
          << "width " << width << " cube " << cube.to_string();
      EXPECT_EQ(h.width(), width);
      EXPECT_TRUE(h.is_concrete());
      // Same number of draws: the streams stay in step afterwards.
      EXPECT_EQ(fast.next(), reference.next()) << "width " << width;
    }
  }
}

TEST(TernaryString, HashDistinguishesMaskFromBits) {
  const auto a = *TernaryString::parse("0x");  // exact 0 then wildcard
  const auto b = *TernaryString::parse("x0");
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(TernaryString, WideHeaders) {
  // Campus rulesets use widths up to 96 bits; exercise the two-word path.
  std::string s(96, 'x');
  s[0] = '1';
  s[70] = '0';
  const auto t = TernaryString::parse(s);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->get(70), Trit::kZero);
  EXPECT_EQ(t->wildcard_count(), 94);
  EXPECT_EQ(t->to_string(), s);
}

}  // namespace
}  // namespace sdnprobe::hsa

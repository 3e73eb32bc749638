// Ternary bitstrings over {0,1,x}^L — the packet-header representation used
// throughout the paper (Header Space Analysis, Kazemian et al. [25]).
//
// A TernaryString is a "cube": the set of concrete headers obtained by
// substituting each wildcard 'x' independently with 0 or 1. Flow-entry match
// fields, set fields, and probe headers are all TernaryStrings; unions of
// cubes are handled by hsa::HeaderSpace.
//
// Bit indexing follows the paper: H[k] is the k-th bit, 0 <= k <= L-1, and
// to_string() prints H[0] leftmost (so "00101xxx" reads exactly as in the
// paper's Figure 3).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace sdnprobe::hsa {

// One symbol of a ternary string.
enum class Trit : std::uint8_t { kZero = 0, kOne = 1, kWild = 2 };

// Fixed-capacity (128-bit) ternary string with runtime width.
//
// Representation: two bitmask words per 64 bits of header. `mask` bit k == 1
// means bit k is exact (0 or 1); == 0 means wildcard. `bits` holds the value
// for exact bits and is 0 for wildcard bits (a class invariant).
class TernaryString {
 public:
  static constexpr int kMaxWidth = 128;

  // Constructs the all-wildcard string {x}^width (the identity header space).
  explicit TernaryString(int width = 0) : width_(width) {
    assert(width >= 0 && width <= kMaxWidth);
  }

  // Parses a string of '0'/'1'/'x'/'X' characters; e.g. "0010xxxx".
  // Returns std::nullopt on invalid characters or width > kMaxWidth.
  static std::optional<TernaryString> parse(std::string_view s);

  // Convenience: all-wildcard string of a given width.
  static TernaryString wildcard(int width) { return TernaryString(width); }

  // Builds an exact (no-wildcard) string of `width` bits from the low bits of
  // `value`, with value bit (width-1-k) mapped to H[k] so that to_string()
  // prints the usual binary rendering of `value`.
  static TernaryString exact(std::uint64_t value, int width);

  // Builds an IPv4-style prefix match over a 32-bit (or wider) header:
  // the first `prefix_len` bits H[0..prefix_len-1] are exact (taken from the
  // top bits of `addr`), the rest wildcard.
  static TernaryString prefix(std::uint32_t addr, int prefix_len, int width);

  int width() const { return width_; }

  Trit get(int k) const;
  void set(int k, Trit t);

  // True when every bit is exact — i.e. the cube contains one header.
  bool is_concrete() const;

  // Number of wildcard positions; the cube covers 2^wildcard_count() headers.
  int wildcard_count() const;

  // Set intersection of the two cubes; nullopt when disjoint (some bit is
  // exact-0 in one and exact-1 in the other). Widths must match.
  std::optional<TernaryString> intersect(const TernaryString& o) const;

  // True when the cubes share at least one concrete header.
  bool intersects(const TernaryString& o) const;

  // True when this cube is a superset of (covers) `o`: every header in `o`
  // is also in this. Widths must match.
  bool covers(const TernaryString& o) const;

  // The paper's bitwise set-field operation T(h, s): bit k of the result is
  // s[k] when s[k] is exact, h[k] otherwise. The all-wildcard set field is
  // therefore the identity.
  TernaryString transform(const TernaryString& set_field) const;

  // Inverse of the set-field operation: the cube of headers h such that
  // T(h, set_field) lies inside this cube. Returns nullopt when no such
  // header exists (the set field writes a value this cube excludes).
  std::optional<TernaryString> inverse_transform(
      const TernaryString& set_field) const;

  // Uniformly samples one concrete header from the cube.
  TernaryString sample(util::Rng& rng) const;

  // Interprets the first min(width,64) bits (H[0] = most significant) as an
  // unsigned integer; wildcard bits read as 0. Mainly for diagnostics.
  std::uint64_t as_uint() const;

  // Raw word access for the cube kernels of hsa::HeaderSpace, which run
  // their subsumption scans on words so that the tests inline.
  // Word w holds header bits [64w, 64w+63], bit k at position (k & 63).
  std::uint64_t bits_word(int w) const {
    return bits_[static_cast<std::size_t>(w)];
  }
  std::uint64_t mask_word(int w) const {
    return mask_[static_cast<std::size_t>(w)];
  }

  // Rebuilds a string from raw words. The caller guarantees the class
  // invariants: bits ⊆ mask, and no word bit at or beyond `width`. Inline:
  // the cube kernels build one string per split piece.
  static TernaryString from_words(int width, std::uint64_t b0,
                                  std::uint64_t b1, std::uint64_t m0,
                                  std::uint64_t m1) {
    assert((b0 & ~m0) == 0 && (b1 & ~m1) == 0);
    TernaryString t(width);
    t.bits_ = {b0, b1};
    t.mask_ = {m0, m1};
    return t;
  }

  std::string to_string() const;

  bool operator==(const TernaryString& o) const {
    return width_ == o.width_ && bits_ == o.bits_ && mask_ == o.mask_;
  }
  bool operator!=(const TernaryString& o) const { return !(*this == o); }

  // Stable hash for use in unordered containers.
  std::size_t hash() const;

 private:
  static constexpr int kWords = kMaxWidth / 64;
  int width_ = 0;
  std::array<std::uint64_t, kWords> bits_{};  // values at exact positions
  std::array<std::uint64_t, kWords> mask_{};  // 1 = exact, 0 = wildcard
};

struct TernaryStringHash {
  std::size_t operator()(const TernaryString& t) const { return t.hash(); }
};

}  // namespace sdnprobe::hsa

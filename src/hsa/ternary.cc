#include "hsa/ternary.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sdnprobe::hsa {
namespace {

// Word/bit position for header bit k.
constexpr int word_of(int k) { return k >> 6; }
constexpr std::uint64_t bit_of(int k) {
  return 1ULL << (static_cast<unsigned>(k) & 63u);
}

}  // namespace

std::optional<TernaryString> TernaryString::parse(std::string_view s) {
  if (s.size() > static_cast<std::size_t>(kMaxWidth)) return std::nullopt;
  TernaryString t(static_cast<int>(s.size()));
  for (int k = 0; k < t.width_; ++k) {
    switch (s[static_cast<std::size_t>(k)]) {
      case '0':
        t.set(k, Trit::kZero);
        break;
      case '1':
        t.set(k, Trit::kOne);
        break;
      case 'x':
      case 'X':
        break;  // already wildcard
      default:
        return std::nullopt;
    }
  }
  return t;
}

TernaryString TernaryString::exact(std::uint64_t value, int width) {
  assert(width >= 0 && width <= 64);
  TernaryString t(width);
  for (int k = 0; k < width; ++k) {
    const bool one = (value >> (width - 1 - k)) & 1ULL;
    t.set(k, one ? Trit::kOne : Trit::kZero);
  }
  return t;
}

TernaryString TernaryString::prefix(std::uint32_t addr, int prefix_len,
                                    int width) {
  assert(prefix_len >= 0 && prefix_len <= 32 && prefix_len <= width);
  TernaryString t(width);
  for (int k = 0; k < prefix_len; ++k) {
    const bool one = (addr >> (31 - k)) & 1u;
    t.set(k, one ? Trit::kOne : Trit::kZero);
  }
  return t;
}

Trit TernaryString::get(int k) const {
  assert(k >= 0 && k < width_);
  if (!(mask_[word_of(k)] & bit_of(k))) return Trit::kWild;
  return (bits_[word_of(k)] & bit_of(k)) ? Trit::kOne : Trit::kZero;
}

void TernaryString::set(int k, Trit t) {
  assert(k >= 0 && k < width_);
  const int w = word_of(k);
  const std::uint64_t b = bit_of(k);
  switch (t) {
    case Trit::kZero:
      mask_[w] |= b;
      bits_[w] &= ~b;
      break;
    case Trit::kOne:
      mask_[w] |= b;
      bits_[w] |= b;
      break;
    case Trit::kWild:
      mask_[w] &= ~b;
      bits_[w] &= ~b;
      break;
  }
}

bool TernaryString::is_concrete() const { return wildcard_count() == 0; }

int TernaryString::wildcard_count() const {
  int exact = 0;
  for (int w = 0; w < kWords; ++w)
    exact += std::popcount(mask_[static_cast<std::size_t>(w)]);
  return width_ - exact;
}

std::optional<TernaryString> TernaryString::intersect(
    const TernaryString& o) const {
  assert(width_ == o.width_);
  TernaryString r(width_);
  for (std::size_t w = 0; w < kWords; ++w) {
    // Conflict: both exact and values differ.
    if ((bits_[w] ^ o.bits_[w]) & mask_[w] & o.mask_[w]) return std::nullopt;
    r.mask_[w] = mask_[w] | o.mask_[w];
    r.bits_[w] = (bits_[w] | o.bits_[w]) & r.mask_[w];
  }
  return r;
}

bool TernaryString::intersects(const TernaryString& o) const {
  assert(width_ == o.width_);
  for (std::size_t w = 0; w < kWords; ++w) {
    if ((bits_[w] ^ o.bits_[w]) & mask_[w] & o.mask_[w]) return false;
  }
  return true;
}

bool TernaryString::covers(const TernaryString& o) const {
  assert(width_ == o.width_);
  for (std::size_t w = 0; w < kWords; ++w) {
    // Every exact bit of this must be exact in o with the same value.
    if (mask_[w] & ~o.mask_[w]) return false;
    if ((bits_[w] ^ o.bits_[w]) & mask_[w]) return false;
  }
  return true;
}

TernaryString TernaryString::transform(const TernaryString& set_field) const {
  assert(width_ == set_field.width_);
  TernaryString r(width_);
  for (std::size_t w = 0; w < kWords; ++w) {
    r.mask_[w] = mask_[w] | set_field.mask_[w];
    r.bits_[w] = (bits_[w] & ~set_field.mask_[w]) | set_field.bits_[w];
    r.bits_[w] &= r.mask_[w];
  }
  return r;
}

std::optional<TernaryString> TernaryString::inverse_transform(
    const TernaryString& set_field) const {
  assert(width_ == set_field.width_);
  TernaryString r(width_);
  for (std::size_t w = 0; w < kWords; ++w) {
    // Where the set field writes a bit, this cube must accept that value.
    if ((bits_[w] ^ set_field.bits_[w]) & mask_[w] & set_field.mask_[w]) {
      return std::nullopt;
    }
    // Written positions impose no constraint on the input header.
    r.mask_[w] = mask_[w] & ~set_field.mask_[w];
    r.bits_[w] = bits_[w] & r.mask_[w];
  }
  return r;
}

TernaryString TernaryString::sample(util::Rng& rng) const {
  TernaryString r = *this;
  // One draw per word, whatever the width, so the caller's stream advances
  // the same way for every cube. Random bits land on wildcards only, and the
  // mask becomes exactly the `width_` in-range bits.
  for (std::size_t w = 0; w < kWords; ++w) {
    const int in_range = std::clamp(width_ - 64 * static_cast<int>(w), 0, 64);
    const std::uint64_t width_mask =
        in_range == 64 ? ~0ULL : (1ULL << in_range) - 1;
    const std::uint64_t random = rng.next();
    r.bits_[w] = (bits_[w] | (random & ~mask_[w])) & width_mask;
    r.mask_[w] = width_mask;
  }
  return r;
}

std::uint64_t TernaryString::as_uint() const {
  std::uint64_t v = 0;
  const int n = width_ < 64 ? width_ : 64;
  for (int k = 0; k < n; ++k) {
    v = (v << 1) | (get(k) == Trit::kOne ? 1ULL : 0ULL);
  }
  return v;
}

std::string TernaryString::to_string() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(width_));
  for (int k = 0; k < width_; ++k) {
    switch (get(k)) {
      case Trit::kZero:
        s.push_back('0');
        break;
      case Trit::kOne:
        s.push_back('1');
        break;
      case Trit::kWild:
        s.push_back('x');
        break;
    }
  }
  return s;
}

std::size_t TernaryString::hash() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(width_);
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  for (std::size_t w = 0; w < kWords; ++w) {
    mix(bits_[w]);
    mix(mask_[w]);
  }
  return static_cast<std::size_t>(h);
}

}  // namespace sdnprobe::hsa

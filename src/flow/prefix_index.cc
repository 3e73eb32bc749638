#include "flow/prefix_index.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <tuple>

#include "util/check.h"

namespace sdnprobe::flow {
namespace {

// The top `n` bits of a word set (n in [0, 64]).
std::uint64_t top_bits(int n) {
  return n == 0 ? 0 : ~std::uint64_t{0} << (64 - n);
}

std::uint64_t reverse_bits(std::uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  x = ((x >> 8) & 0x00FF00FF00FF00FFull) | ((x & 0x00FF00FF00FF00FFull) << 8);
  x = ((x >> 16) & 0x0000FFFF0000FFFFull) |
      ((x & 0x0000FFFF0000FFFFull) << 16);
  return (x >> 32) | (x << 32);
}

bool run_less(std::uint64_t a_key, int a_len, std::uint64_t b_key,
              int b_len) {
  return a_key < b_key || (a_key == b_key && a_len < b_len);
}

}  // namespace

LeadingRunIndex::Run LeadingRunIndex::run_of(const hsa::TernaryString& t) {
  // Mask bits at or past the width are 0, so the run never passes it.
  Run r;
  r.len = std::countr_one(t.mask_word(0));
  r.key = reverse_bits(t.bits_word(0)) & top_bits(r.len);
  return r;
}

void LeadingRunIndex::add(int id, const hsa::TernaryString& match) {
  SDNPROBE_DCHECK(runs_.empty()) << "LeadingRunIndex::add after seal()";
  SDNPROBE_DCHECK(ids_.empty() || ids_.back() < id)
      << "LeadingRunIndex ids must be added in ascending order";
  ids_.push_back(id);
  matches_.push_back(match);
}

void LeadingRunIndex::seal() {
  const std::size_t n = ids_.size();
  // collect()'s order: the matches exact on every keyed bit grouped by
  // prefix key, the groups by ascending key, then the rest; ids ascending
  // within each group (the sort is stable over add() order).
  const int bits = std::min(kPrefixKeyBits, width_);
  const std::uint32_t all_exact = (std::uint32_t{1} << bits) - 1;
  std::vector<std::uint32_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PrefixKey key = prefix_key(matches_[i], bits);
    group_of[i] = key.exact == all_exact ? key.value : all_exact + 1;
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return group_of[static_cast<std::size_t>(a)] <
           group_of[static_cast<std::size_t>(b)];
  });
  id_at_.resize(n);
  std::vector<Run> runs(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(order[p]);
    id_at_[p] = ids_[i];
    runs[i] = run_of(matches_[i]);
    runs[i].pos = static_cast<int>(p);
  }

  // The runs, and their matches, in (run, length) order.
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Run& ra = runs[static_cast<std::size_t>(a)];
    const Run& rb = runs[static_cast<std::size_t>(b)];
    return std::tie(ra.key, ra.len, ra.pos) < std::tie(rb.key, rb.len, rb.pos);
  });
  std::vector<hsa::TernaryString> matches;
  matches.reserve(n);
  runs_.reserve(n);
  for (const int i : order) {
    runs_.push_back(runs[static_cast<std::size_t>(i)]);
    matches.push_back(std::move(matches_[static_cast<std::size_t>(i)]));
  }
  matches_ = std::move(matches);

  // The same runs grouped by length; each group keeps the key order.
  by_length_.resize(n);
  std::iota(by_length_.begin(), by_length_.end(), 0);
  std::stable_sort(by_length_.begin(), by_length_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return runs_[a].len < runs_[b].len;
                   });
  for (std::size_t i = 0; i < n; ++i) {
    const int len = runs_[by_length_[i]].len;
    if (lengths_.empty() || lengths_.back().len != len) {
      lengths_.push_back(LengthGroup{len, static_cast<std::uint32_t>(i), 0});
    }
    lengths_.back().end = static_cast<std::uint32_t>(i + 1);
  }
  ids_.clear();
  ids_.shrink_to_fit();
}

std::size_t LeadingRunIndex::collect(const hsa::TernaryString& cube,
                                     std::vector<int>& out) const {
  const std::size_t first = out.size();
  std::size_t tests = 0;
  auto test = [&](std::size_t i) {
    ++tests;
    if (matches_[i].intersects(cube)) out.push_back(runs_[i].pos);
  };
  const Run q = run_of(cube);
  // Runs that are a proper prefix of the query's run: per shorter length,
  // the runs of that length whose key is q's run cut to it.
  for (const LengthGroup& group : lengths_) {
    if (group.len >= q.len) break;
    const std::uint64_t key = q.key & top_bits(group.len);
    const auto end = by_length_.begin() + group.end;
    for (auto it = std::lower_bound(by_length_.begin() + group.begin, end, key,
                                    [&](std::uint32_t i, std::uint64_t k) {
                                      return runs_[i].key < k;
                                    });
         it != end && runs_[*it].key == key; ++it) {
      test(*it);
    }
  }
  // Runs that extend it (or equal it): their keys share its top |q| bits.
  // A shorter run with those top bits has q's own key and sorts before
  // (q.key, q.len), so the range holds no run shorter than q.
  const std::uint64_t hi = q.key | ~top_bits(q.len);
  for (auto i = static_cast<std::size_t>(
           std::lower_bound(runs_.begin(), runs_.end(), q,
                            [](const Run& a, const Run& b) {
                              return run_less(a.key, a.len, b.key, b.len);
                            }) -
           runs_.begin());
       i < runs_.size() && runs_[i].key <= hi; ++i) {
    test(i);
  }

  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  for (std::size_t i = first; i < out.size(); ++i) {
    out[i] = id_at_[static_cast<std::size_t>(out[i])];
  }
  return tests;
}

}  // namespace sdnprobe::flow

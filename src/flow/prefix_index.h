// Prefix keys, and LeadingRunIndex: answers "which registered matches
// intersect this cube?" without testing every entry of a table.
//
// A cube's leading run is the header bits H[0..len) that are exact before
// its first wildcard, read off the first word (so len <= 64). Two cubes can
// meet only if they agree on the shorter of their two runs. So for a query
// whose run is q the candidates are
//   - the matches whose run is a prefix of q: one binary search among the
//     runs of each distinct length below |q|, and
//   - the matches whose run extends q: one range scan, since the runs are
//     kept sorted in (run, length) order, H[0] compared first.
// Each candidate then gets one cube test, so collect() returns exactly the
// intersecting ids. The index stores ids and their matches; the step-1 edge
// scan of core::RuleGraph runs on it (ids are vertices). FlowTable's live
// index buckets its entries by prefix_key().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hsa/ternary.h"

namespace sdnprobe::flow {

// How many leading header bits FlowTable's bucket tier keys on.
inline constexpr int kPrefixKeyBits = 12;

// The first `bits` header bits of a cube (bits <= 32) as an integer, H[0]
// most significant: `exact` has a 1 for every exact bit, `value` their
// values. Read straight off the cube's first word, where H[k] is bit k.
struct PrefixKey {
  std::uint32_t value = 0;
  std::uint32_t exact = 0;
};

inline PrefixKey prefix_key(const hsa::TernaryString& t, int bits) {
  PrefixKey key;
  const std::uint64_t b = t.bits_word(0);
  const std::uint64_t m = t.mask_word(0);
  for (int k = 0; k < bits; ++k) {
    key.value = (key.value << 1) | static_cast<std::uint32_t>((b >> k) & 1);
    key.exact = (key.exact << 1) | static_cast<std::uint32_t>((m >> k) & 1);
  }
  return key;
}

class LeadingRunIndex {
 public:
  explicit LeadingRunIndex(int width) : width_(width) {}

  // Registers `id` under `match`. Ids must be added in ascending order, and
  // all of them before seal().
  void add(int id, const hsa::TernaryString& match);

  // Sorts the runs and fixes the order collect() returns ids in.
  void seal();

  // Appends every registered id whose match intersects `cube` and returns
  // how many cube tests that took. Ids come in one fixed order, which
  // callers that build adjacency lists from it inherit: the ids exact on
  // the first min(kPrefixKeyBits, width) bits grouped by that prefix key,
  // the groups by ascending key, then the rest; ascending ids within each
  // group.
  std::size_t collect(const hsa::TernaryString& cube,
                      std::vector<int>& out) const;

 private:
  // A leading run: its bits with H[0] at bit 63 and zeros past `len`, and
  // the registered id's position in collect()'s order.
  struct Run {
    std::uint64_t key = 0;
    int len = 0;
    int pos = 0;
  };
  // The runs of one length: by_length_[begin, end).
  struct LengthGroup {
    int len = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  static Run run_of(const hsa::TernaryString& t);

  int width_;
  std::vector<int> ids_;                     // in add() order until seal()
  std::vector<hsa::TernaryString> matches_;  // parallel to runs_ after seal()
  std::vector<Run> runs_;                    // sorted by (key, len) on seal()
  std::vector<std::uint32_t> by_length_;     // runs_ indices by (length, key)
  std::vector<LengthGroup> lengths_;  // one per distinct length, ascending
  std::vector<int> id_at_;            // collect() position -> id
};

}  // namespace sdnprobe::flow

// PrefixIndex: answers "which registered matches intersect this cube?"
// without testing every entry of a table.
//
// Ids are bucketed by the exact value of their match's first
// min(kIndexBits, width) header bits; an id whose match wildcards any indexed
// bit goes to one always-visited wildcard list. A query visits only the
// buckets whose key agrees with its own exact indexed bits, then tests each
// visited match with one cube intersection, so it returns exactly the
// intersecting ids. The index stores ids only; the caller hands collect()
// the id -> match mapping it already owns. The step-1 edge scan of
// core::RuleGraph runs on it (ids are vertices); FlowTable's live index
// buckets its entries by the same prefix_key().
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "hsa/ternary.h"

namespace sdnprobe::flow {

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

class PrefixIndex {
 public:
  static constexpr int kIndexBits = 12;

  explicit PrefixIndex(int width);

  // Registers `id` under `match`. Ids must be added in ascending order.
  void add(int id, const hsa::TernaryString& match);

  // Appends every registered id below `below` whose match, `match_of(id)`,
  // intersects `cube`. When the cube's indexed bits are all exact: its own
  // bucket, then the wildcard list. Otherwise: every agreeing bucket in map
  // iteration order (fixed by the insertion sequence), then the wildcard
  // list. Within a bucket or the list, ids come in ascending order.
  template <class MatchOf>
  void collect(const hsa::TernaryString& cube, const MatchOf& match_of,
               std::vector<int>& out,
               int below = std::numeric_limits<int>::max()) const {
    auto take = [&](const std::vector<int>& ids) {
      for (const int id : ids) {
        if (id >= below) break;
        if (match_of(id).intersects(cube)) out.push_back(id);
      }
    };
    const PrefixKey key = prefix_key(cube, bits_);
    if (key.exact == all_exact_) {
      const auto it = exact_.find(key.value);
      if (it != exact_.end()) take(it->second);
    } else {
      // The cube wildcards an indexed bit: every bucket that agrees with its
      // exact indexed bits may hold an intersecting match.
      for (const auto& [value, ids] : exact_) {
        if (((value ^ key.value) & key.exact) == 0) take(ids);
      }
    }
    take(wildcard_);
  }

 private:
  int bits_;
  std::uint32_t all_exact_;
  std::unordered_map<std::uint32_t, std::vector<int>> exact_;
  std::vector<int> wildcard_;
};

}  // namespace sdnprobe::flow

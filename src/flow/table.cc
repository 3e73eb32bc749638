#include "flow/table.h"

#include <algorithm>
#include <tuple>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace sdnprobe::flow {
namespace {

telemetry::Histogram& input_space_cubes() {
  static auto& h = telemetry::MetricsRegistry::global().histogram(
      "flow.input_space.cubes", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

constexpr std::uint64_t kSeqMask = 0xffffffffu;

// The high half of every rank at `priority`: higher priorities map to
// smaller values.
std::uint64_t priority_rank(int priority) {
  return std::uint64_t{~(static_cast<std::uint32_t>(priority) ^ 0x80000000u)}
         << 32;
}

// Cover and overlap tests of an index slot against a cube, on raw words.
template <class Slot>
bool slot_covers(const Slot& s, const hsa::TernaryString& h) {
  for (int w = 0; w < 2; ++w) {
    if ((s.mask[w] & ~h.mask_word(w)) |
        ((s.bits[w] ^ h.bits_word(w)) & s.mask[w])) {
      return false;
    }
  }
  return true;
}

template <class Slot>
bool slot_meets(const Slot& s, const hsa::TernaryString& c) {
  for (int w = 0; w < 2; ++w) {
    if ((s.bits[w] ^ c.bits_word(w)) & s.mask[w] & c.mask_word(w)) {
      return false;
    }
  }
  return true;
}

template <class Slot>
bool rank_less(const Slot& a, const Slot& b) {
  return a.rank < b.rank;
}

template <class Slot>
bool exact_less(const Slot& a, const Slot& b) {
  return std::tie(a.bits[0], a.bits[1], a.rank) <
         std::tie(b.bits[0], b.bits[1], b.rank);
}

}  // namespace

FlowTable::Slot FlowTable::slot_of(Rank rank,
                                   const hsa::TernaryString& match) {
  return Slot{rank,
              {match.bits_word(0), match.bits_word(1)},
              {match.mask_word(0), match.mask_word(1)}};
}

std::vector<FlowTable::Slot>* FlowTable::rank_tier(
    const hsa::TernaryString& match, bool create) {
  const PrefixKey key = prefix_key(match, key_bits());
  if (key.exact != all_exact()) return &wildcard_;
  if (create) return &buckets_[key.value];
  const auto it = buckets_.find(key.value);
  return it == buckets_.end() ? nullptr : &it->second;
}

FlowTable::IdIter FlowTable::find_id(EntryId id) const {
  return std::lower_bound(
      ids_.begin(), ids_.end(), id,
      [](const std::pair<EntryId, Rank>& p, EntryId x) { return p.first < x; });
}

std::optional<std::size_t> FlowTable::position_of(EntryId id) const {
  const IdIter it = find_id(id);
  if (it == ids_.end() || it->first != id) return std::nullopt;
  return position_of_rank(it->second);
}

std::size_t FlowTable::position_of_rank(Rank rank) const {
  const auto it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  SDNPROBE_DCHECK(it != ranks_.end() && *it == rank);
  return static_cast<std::size_t>(it - ranks_.begin());
}

void FlowTable::insert(const FlowEntry& e) {
  SDNPROBE_DCHECK_GT(e.match.width(), 0) << "entry has no match field";
  if (width_ == 0) width_ = e.match.width();
  SDNPROBE_DCHECK_EQ(e.match.width(), width_)
      << "all entries of a table must share one header width";
  // The entry goes after its priority group and continues the group's
  // sequence. A group that empties restarts at 0; one would need 2^32
  // inserts without ever emptying to exhaust it.
  const Rank group = priority_rank(e.priority);
  const auto at =
      std::upper_bound(ranks_.begin(), ranks_.end(), group | kSeqMask);
  Rank rank = group;
  if (at != ranks_.begin() && *(at - 1) >= group) {
    SDNPROBE_CHECK_NE(*(at - 1), group | kSeqMask)
        << "priority " << e.priority << " ran out of sequence numbers";
    rank = *(at - 1) + 1;
  }
  const IdIter id_at = find_id(e.id);
  SDNPROBE_CHECK(id_at == ids_.end() || id_at->first != e.id)
      << "entry id " << e.id << " is already in the table";
  ids_.insert(id_at, {e.id, rank});
  entries_.insert(entries_.begin() + (at - ranks_.begin()), e);
  ranks_.insert(at, rank);

  const Slot slot = slot_of(rank, e.match);
  std::vector<Slot>& tier =
      e.match.is_concrete() ? exact_ : *rank_tier(e.match, /*create=*/true);
  tier.insert(std::upper_bound(tier.begin(), tier.end(), slot,
                               &tier == &exact_ ? exact_less<Slot>
                                                : rank_less<Slot>),
              slot);
}

bool FlowTable::erase(EntryId id) {
  const IdIter id_at = find_id(id);
  if (id_at == ids_.end() || id_at->first != id) return false;
  const Rank rank = id_at->second;
  const std::size_t pos = position_of_rank(rank);
  const hsa::TernaryString& match = entries_[pos].match;

  const Slot slot = slot_of(rank, match);
  if (match.is_concrete()) {
    exact_.erase(
        std::lower_bound(exact_.begin(), exact_.end(), slot, exact_less<Slot>));
  } else {
    std::vector<Slot>* tier = rank_tier(match, /*create=*/false);
    SDNPROBE_DCHECK(tier != nullptr);
    tier->erase(
        std::lower_bound(tier->begin(), tier->end(), slot, rank_less<Slot>));
    if (tier->empty() && tier != &wildcard_) {
      buckets_.erase(prefix_key(match, key_bits()).value);
    }
  }
  ids_.erase(id_at);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
  ranks_.erase(ranks_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

bool FlowTable::update_actions(EntryId id, const hsa::TernaryString& set_field,
                               const Action& action) {
  const auto pos = position_of(id);
  if (!pos) return false;
  entries_[*pos].set_field = set_field;
  entries_[*pos].action = action;
  return true;
}

const FlowEntry* FlowTable::lookup(const hsa::TernaryString& header) const {
  if (entries_.empty()) return nullptr;
  SDNPROBE_DCHECK_EQ(header.width(), width_);
  // Each tier is in table order, so its first cover is its winner, and a
  // scan stops at the first rank that cannot beat the best so far.
  constexpr Rank kNone = ~Rank{0};
  Rank best = kNone;
  auto first_cover = [&](const std::vector<Slot>& tier) {
    for (const Slot& s : tier) {
      if (s.rank >= best) return;
      if (slot_covers(s, header)) {
        best = s.rank;
        return;
      }
    }
  };
  if (!exact_.empty() && header.is_concrete()) {
    const Slot probe = slot_of(0, header);
    const auto it =
        std::lower_bound(exact_.begin(), exact_.end(), probe, exact_less<Slot>);
    if (it != exact_.end() && it->bits == probe.bits) best = it->rank;
  }
  const PrefixKey key = prefix_key(header, key_bits());
  if (key.exact == all_exact()) {
    const auto it = buckets_.find(key.value);
    if (it != buckets_.end()) first_cover(it->second);
  }
  first_cover(wildcard_);
  return best == kNone ? nullptr : &entries_[position_of_rank(best)];
}

std::vector<const FlowEntry*> FlowTable::overlapping_above(
    const FlowEntry& e) const {
  std::vector<const FlowEntry*> out;
  for (const auto& q : entries_) {
    if (q.priority <= e.priority) break;  // sorted descending
    if (q.id != e.id && q.match.intersects(e.match)) out.push_back(&q);
  }
  return out;
}

hsa::HeaderSpace FlowTable::input_space(EntryId id) const {
  const auto pos = position_of(id);
  if (!pos) return hsa::HeaderSpace();
  const hsa::TernaryString& match = entries_[*pos].match;
  const Rank rank = ranks_[*pos];

  // r.in = match minus every overlap that wins lookup over r (§V-A). The
  // lookup winner is the first covering entry in table order — strictly
  // higher priority, or equal priority inserted earlier — so the
  // subtraction takes every earlier overlapping entry, not only
  // overlapping_above(). (OpenFlow leaves same-priority overlap undefined;
  // the simulated switch resolves it by insertion order, and the analysis
  // must model the switch it verifies.) The index yields those entries
  // tier by tier; sorting by rank puts them back in table order.
  // input_space feeds volume-weighted probe-header sampling, which depends
  // on the exact cube list, so the fold's order is part of the contract.
  thread_local std::vector<const Slot*> shadows;
  shadows.clear();
  auto take = [&](const std::vector<Slot>& tier) {
    for (const Slot& s : tier) {
      if (s.rank >= rank) break;
      if (slot_meets(s, match)) shadows.push_back(&s);
    }
  };
  const PrefixKey key = prefix_key(match, key_bits());
  if (key.exact == all_exact()) {
    const auto it = buckets_.find(key.value);
    if (it != buckets_.end()) take(it->second);
  } else {
    // The match wildcards an indexed bit: every bucket that agrees with its
    // exact indexed bits may overlap it.
    for (const auto& [value, tier] : buckets_) {
      if (((value ^ key.value) & key.exact) == 0) take(tier);
    }
  }
  take(wildcard_);
  // Concrete matches are few outside the §VI test tables, whose input
  // spaces nothing asks for: a plain scan.
  for (const Slot& s : exact_) {
    if (s.rank < rank && slot_meets(s, match)) shadows.push_back(&s);
  }
  std::sort(shadows.begin(), shadows.end(),
            [](const Slot* a, const Slot* b) { return a->rank < b->rank; });

  // One fold from the match cube: its working lists stay pairwise
  // disjoint, so it needs no subsumption cleanup (HeaderSpace::subtract).
  thread_local std::vector<hsa::TernaryString> shadow_cubes;
  shadow_cubes.clear();
  for (const Slot* s : shadows) {
    shadow_cubes.push_back(hsa::TernaryString::from_words(
        width_, s->bits[0], s->bits[1], s->mask[0], s->mask[1]));
  }
  hsa::HeaderSpace in = hsa::HeaderSpace(match).subtract(shadow_cubes);
  input_space_cubes().record(static_cast<double>(in.cube_count()));
  return in;
}

}  // namespace sdnprobe::flow

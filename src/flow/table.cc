#include "flow/table.h"

#include <algorithm>
#include <functional>
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

struct FlowTable::Move {
  EntryId id;
  std::uint32_t index;  // position in the insert batch
  std::vector<Slot>* tier;
  Slot slot;          // slot.rank is the entry's rank
  std::uint32_t key;  // the bucket's key, when `tier` is a bucket
  // Positions in a vector as it was before the batch, where the entry goes
  // (insert) or is (erase): `pos` in entries_/ranks_, then in its tier;
  // `id_pos` in ids_.
  std::size_t pos;
  std::size_t id_pos;
};

bool FlowTable::tier_less(const Move& a, const Move& b) const {
  if (a.tier != b.tier) return std::less<>{}(a.tier, b.tier);
  return a.tier == &exact_ ? exact_less(a.slot, b.slot)
                           : rank_less(a.slot, b.slot);
}

namespace {

template <class T>
auto at(std::vector<T>& v, std::size_t i) {
  return v.begin() + static_cast<std::ptrdiff_t>(i);
}

// Inserts value(add[j]) into v before the element at old position
// pos(add[j]), for `add` sorted by position (equal positions in insertion
// order). From the back, one block move per gap: only the elements after
// the first insertion point move, each once.
template <class T, class Moves, class Pos, class Value>
void insert_at(std::vector<T>& v, const Moves& add, Pos pos, Value value) {
  std::size_t end = v.size();
  v.resize(v.size() + add.size());
  for (std::size_t j = add.size(); j-- > 0;) {
    const std::size_t p = pos(add[j]);
    std::move_backward(at(v, p), at(v, end), at(v, end + j + 1));
    v[p + j] = value(add[j]);
    end = p;
  }
}

// Removes the elements of v at old positions pos(gone[j]), for `gone`
// sorted by position without repeats: one block move per gap, from the
// first removed position on.
template <class T, class Moves, class Pos>
void erase_at(std::vector<T>& v, const Moves& gone, Pos pos) {
  auto out = at(v, pos(gone.front()));
  for (std::size_t j = 0; j < gone.size(); ++j) {
    const std::size_t last = j + 1 < gone.size() ? pos(gone[j + 1]) : v.size();
    out = std::move(at(v, pos(gone[j]) + 1), at(v, last), out);
  }
  v.erase(out, v.end());
}

}  // namespace

void FlowTable::insert(std::span<const FlowEntry> batch) {
  if (batch.empty()) return;
  if (width_ == 0) width_ = batch.front().match.width();
  // Batch scratch, kept per thread so a one-entry insert allocates nothing.
  thread_local std::vector<Move> moves;
  moves.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FlowEntry& e = batch[i];
    SDNPROBE_DCHECK_GT(e.match.width(), 0) << "entry has no match field";
    SDNPROBE_DCHECK_EQ(e.match.width(), width_)
        << "all entries of a table must share one header width";
    const IdIter id_at = find_id(e.id);
    SDNPROBE_CHECK(id_at == ids_.end() || id_at->first != e.id)
        << "entry id " << e.id << " is already in the table";
    Move& m = moves.emplace_back();
    m.id = e.id;
    m.index = static_cast<std::uint32_t>(i);
    m.slot.rank = priority_rank(e.priority);
    m.id_pos = static_cast<std::size_t>(id_at - ids_.begin());
  }

  // Ranks, in table order: each entry goes after its priority group and
  // continues the group's sequence, the batch's earlier entries included. A
  // group that empties restarts at 0; one would need 2^32 inserts without
  // ever emptying to exhaust it.
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return std::tie(a.slot.rank, a.index) < std::tie(b.slot.rank, b.index);
  });
  for (std::size_t a = 0; a < moves.size();) {
    const Rank group = moves[a].slot.rank;
    const auto after =
        std::upper_bound(ranks_.begin(), ranks_.end(), group | kSeqMask);
    std::optional<Rank> last;
    if (after != ranks_.begin() && *(after - 1) >= group) last = *(after - 1);
    for (; a < moves.size() && moves[a].slot.rank == group; ++a) {
      Move& m = moves[a];
      const FlowEntry& e = batch[m.index];
      SDNPROBE_CHECK(!last || *last != (group | kSeqMask))
          << "priority " << e.priority << " ran out of sequence numbers";
      m.slot = slot_of(last ? *last + 1 : group, e.match);
      last = m.slot.rank;
      m.pos = static_cast<std::size_t>(after - ranks_.begin());
      m.tier = e.match.is_concrete() ? &exact_
                                     : rank_tier(e.match, /*create=*/true);
    }
  }
  auto pos = [](const Move& m) { return m.pos; };
  insert_at(ranks_, moves, pos, [](const Move& m) { return m.slot.rank; });
  insert_at(entries_, moves, pos,
            [&batch](const Move& m) -> const FlowEntry& {
              return batch[m.index];
            });

  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.id < b.id; });
  for (std::size_t j = 1; j < moves.size(); ++j) {
    SDNPROBE_CHECK_NE(moves[j - 1].id, moves[j].id)
        << "entry id " << moves[j].id << " appears twice in the batch";
  }
  insert_at(
      ids_, moves, [](const Move& m) { return m.id_pos; },
      [](const Move& m) { return std::pair{m.id, m.slot.rank}; });

  // Each touched tier: one merge per run of moves into it.
  std::sort(moves.begin(), moves.end(),
            [this](const Move& a, const Move& b) { return tier_less(a, b); });
  for (std::size_t a = 0; a < moves.size();) {
    std::size_t b = a + 1;
    while (b < moves.size() && moves[b].tier == moves[a].tier) ++b;
    std::vector<Slot>& tier = *moves[a].tier;
    const std::span run(moves.data() + a, b - a);
    for (Move& m : run) {
      m.pos = static_cast<std::size_t>(
          (&tier == &exact_
               ? std::upper_bound(tier.begin(), tier.end(), m.slot,
                                  exact_less<Slot>)
               : std::upper_bound(tier.begin(), tier.end(), m.slot,
                                  rank_less<Slot>)) -
          tier.begin());
    }
    insert_at(tier, run, pos, [](const Move& m) { return m.slot; });
    a = b;
  }
}

std::size_t FlowTable::erase(std::span<const EntryId> ids) {
  thread_local std::vector<Move> moves;
  moves.clear();
  for (const EntryId id : ids) {
    const IdIter id_at = find_id(id);
    if (id_at == ids_.end() || id_at->first != id) continue;
    Move& m = moves.emplace_back();
    m.id = id;
    m.id_pos = static_cast<std::size_t>(id_at - ids_.begin());
    m.pos = position_of_rank(id_at->second);
    const hsa::TernaryString& match = entries_[m.pos].match;
    m.slot = slot_of(id_at->second, match);
    if (match.is_concrete()) {
      m.tier = &exact_;
    } else {
      m.tier = rank_tier(match, /*create=*/false);
      SDNPROBE_DCHECK(m.tier != nullptr);
      m.key = prefix_key(match, key_bits()).value;
    }
  }
  if (moves.empty()) return 0;

  // Ids: the same id twice in `ids` removes one entry.
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.id < b.id; });
  moves.erase(std::unique(moves.begin(), moves.end(),
                          [](const Move& a, const Move& b) {
                            return a.id == b.id;
                          }),
              moves.end());
  erase_at(ids_, moves, [](const Move& m) { return m.id_pos; });

  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.pos < b.pos; });
  auto pos = [](const Move& m) { return m.pos; };
  erase_at(ranks_, moves, pos);
  erase_at(entries_, moves, pos);

  // Each touched tier: one walk per run of moves out of it. An emptied
  // bucket goes by its key.
  std::sort(moves.begin(), moves.end(),
            [this](const Move& a, const Move& b) { return tier_less(a, b); });
  for (std::size_t a = 0; a < moves.size();) {
    std::size_t b = a + 1;
    while (b < moves.size() && moves[b].tier == moves[a].tier) ++b;
    std::vector<Slot>& tier = *moves[a].tier;
    const std::span run(moves.data() + a, b - a);
    const bool exact = &tier == &exact_;
    for (Move& m : run) {
      m.pos = static_cast<std::size_t>(
          (exact ? std::lower_bound(tier.begin(), tier.end(), m.slot,
                                    exact_less<Slot>)
                 : std::lower_bound(tier.begin(), tier.end(), m.slot,
                                    rank_less<Slot>)) -
          tier.begin());
    }
    erase_at(tier, run, pos);
    if (tier.empty() && !exact && &tier != &wildcard_) {
      buckets_.erase(run.front().key);
    }
    a = b;
  }
  return moves.size();
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

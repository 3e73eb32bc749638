// A single OpenFlow flow table: priority-ordered matching over flow entries.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/entry.h"
#include "flow/prefix_index.h"
#include "hsa/header_space.h"

namespace sdnprobe::flow {

// Stores entries sorted by descending priority (ties broken by insertion
// order, matching OVS behavior closely enough for our purposes). Lookup
// returns the highest-priority entry whose match covers the header.
//
// A live index, changed only by insert(), erase() and update_actions(),
// answers lookups, FlowMods and input spaces without scanning the table
// (DESIGN.md §13). Every entry has a rank, one integer in table order, and
// sits in one tier: concrete matches in an exact-value list, matches exact
// on the first min(PrefixIndex::kIndexBits, width) header bits in the
// bucket of that prefix_key(), the rest in one wildcard list.
//
// FlowMods come in batches: a batch of k entries costs one merge or
// compaction pass over the entries, the ids and each touched tier, from
// the first changed position on, plus a sort of the batch and a binary
// search per entry. The single-entry calls are one-element batches.
class FlowTable {
 public:
  // Inserts entries (copied), leaving the table exactly as inserting them
  // one at a time in span order would: each goes after every entry of
  // priority >= its own, including the batch's earlier ones. Ids must be
  // unique within the table and the batch.
  void insert(std::span<const FlowEntry> batch);
  void insert(const FlowEntry& e) { insert(std::span(&e, 1)); }

  // Removes the entries with the given ids, skipping ids the table does not
  // hold; returns how many it removed.
  std::size_t erase(std::span<const EntryId> ids);
  bool erase(EntryId id) { return erase(std::span(&id, 1)) == 1; }

  // Replaces the action (and set field) of an entry *in place*, preserving
  // its table position. An OpenFlow modify-flow must not reorder the table:
  // within an equal-priority group the lookup winner is decided by position,
  // so erase+insert would silently change which entry wins overlapping
  // headers. Returns true if the entry was found.
  bool update_actions(EntryId id, const hsa::TernaryString& set_field,
                      const Action& action);

  // Highest-priority match for a header (the first entry in table order
  // whose match covers it), or nullptr.
  const FlowEntry* lookup(const hsa::TernaryString& header) const;

  // All entries, descending priority.
  const std::vector<FlowEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // The paper's r.in for an entry in this table: its match minus the union
  // of the overlapping matches earlier in table order, equal-priority ones
  // included, since they win lookup too (§V-A). One subtract() fold from
  // the match over those matches in table order, so the cube list is the
  // one a chain of single-cube subtractions gives. Empty for an id the
  // table does not hold.
  hsa::HeaderSpace input_space(EntryId id) const;

  // Entries q with q >o e (same table, higher priority, overlapping match).
  std::vector<const FlowEntry*> overlapping_above(const FlowEntry& e) const;

 private:
  // Table order as one integer: the high half orders priorities
  // descending, the low half is a sequence number that grows within a
  // priority, so a later insert sorts after its equal-priority peers.
  using Rank = std::uint64_t;

  // One indexed match: its rank and raw words, so tier scans test cover
  // and overlap without reaching into entries_.
  struct Slot {
    Rank rank;
    std::array<std::uint64_t, 2> bits;
    std::array<std::uint64_t, 2> mask;
  };

  using IdIter = std::vector<std::pair<EntryId, Rank>>::const_iterator;

  // One entry of a FlowMod batch: its id and rank, and where its slot sits
  // in the index (table.cc).
  struct Move;
  // Orders moves by tier, then in the tier's own order.
  bool tier_less(const Move& a, const Move& b) const;

  static Slot slot_of(Rank rank, const hsa::TernaryString& match);
  int key_bits() const { return std::min(PrefixIndex::kIndexBits, width_); }
  // PrefixKey::exact of a match exact on every indexed bit.
  std::uint32_t all_exact() const {
    return (std::uint32_t{1} << key_bits()) - 1;
  }
  // The rank-ordered tier holding a non-concrete match; nullptr when its
  // bucket does not exist and `create` is false.
  std::vector<Slot>* rank_tier(const hsa::TernaryString& match, bool create);
  // First ids_ element whose id is not below `id`.
  IdIter find_id(EntryId id) const;
  std::optional<std::size_t> position_of(EntryId id) const;
  std::size_t position_of_rank(Rank rank) const;

  int width_ = 0;
  std::vector<FlowEntry> entries_;
  std::vector<Rank> ranks_;                    // ranks_[pos] ranks entries_[pos]
  std::vector<std::pair<EntryId, Rank>> ids_;  // ascending id
  std::vector<Slot> exact_;                    // ascending (bits, rank)
  std::unordered_map<std::uint32_t, std::vector<Slot>> buckets_;  // by rank
  std::vector<Slot> wildcard_;                                     // by rank
};

}  // namespace sdnprobe::flow

// A single OpenFlow flow table: priority-ordered matching over flow entries.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "flow/entry.h"
#include "flow/prefix_index.h"
#include "hsa/header_space.h"

namespace sdnprobe::flow {

// Stores entries sorted by descending priority (ties broken by insertion
// order, matching OVS behavior closely enough for our purposes). Lookup
// returns the highest-priority entry whose match covers the header.
class FlowTable {
 public:
  // Inserts an entry (copied). Keeps descending-priority order.
  void insert(const FlowEntry& e);

  // Removes the entry with the given id; returns true if found.
  bool erase(EntryId id);

  // Replaces the action (and set field) of an entry *in place*, preserving
  // its table position. An OpenFlow modify-flow must not reorder the table:
  // within an equal-priority group the lookup winner is decided by position,
  // so erase+insert would silently change which entry wins overlapping
  // headers. Returns true if the entry was found.
  bool update_actions(EntryId id, const hsa::TernaryString& set_field,
                      const Action& action);

  // Highest-priority match for a concrete header, or nullptr.
  const FlowEntry* lookup(const hsa::TernaryString& header) const;

  // All entries, descending priority.
  const std::vector<FlowEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // The paper's r.in for an entry in this table: its match minus the union
  // of all strictly-higher-priority overlapping matches (§V-A).
  hsa::HeaderSpace input_space(EntryId id) const;

  // This table's matches indexed by position in entries(), for
  // input_space_at(). Valid until the table changes.
  PrefixIndex shadow_index() const;

  // input_space() of the entry at position `pos`, cube for cube. Its
  // shadowing candidates come from `index`, this table's shadow_index(),
  // instead of a scan of the table prefix.
  hsa::HeaderSpace input_space_at(std::size_t pos,
                                  const PrefixIndex& index) const;

  // Entries q with q >o e (same table, higher priority, overlapping match).
  std::vector<const FlowEntry*> overlapping_above(const FlowEntry& e) const;

 private:
  // entries_[pos].match minus the matches at `shadows`: ascending positions
  // before pos whose matches intersect it. The one subtraction chain behind
  // input_space() and input_space_at().
  hsa::HeaderSpace shadow_chain(std::size_t pos,
                                std::span<const int> shadows) const;

  std::vector<FlowEntry> entries_;
};

}  // namespace sdnprobe::flow

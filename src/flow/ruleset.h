// RuleSet: the control plane's authoritative view of the network — the
// switch topology, a canonical port numbering, and every policy flow entry.
// This is the input to SDNProbe's rule-graph construction and the source
// from which the data-plane simulator is programmed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "flow/entry.h"
#include "flow/table.h"
#include "hsa/header_space.h"
#include "topo/graph.h"
#include "util/check.h"

namespace sdnprobe::flow {

// Canonical port numbering derived from the topology: on switch s with
// neighbors n_0 < n_1 < ... (adjacency insertion order), port i connects to
// n_i; port degree(s) is the host/edge port.
class PortMap {
 public:
  explicit PortMap(const topo::Graph& g);
  PortMap() = default;

  // Port on `from` that reaches neighbor `to`; nullopt if not adjacent.
  std::optional<PortId> port_to(SwitchId from, SwitchId to) const;

  // Switch on the far side of (sw, port); nullopt for host port / invalid.
  std::optional<SwitchId> peer_of(SwitchId sw, PortId port) const;

  // The host-facing port of a switch.
  PortId host_port(SwitchId sw) const;

  int switch_count() const { return static_cast<int>(ports_.size()); }

 private:
  // ports_[s][p] = neighbor id.
  std::vector<std::vector<SwitchId>> ports_;
};

class RuleSet {
 public:
  explicit RuleSet(topo::Graph topology, int header_width);
  RuleSet() = default;

  const topo::Graph& topology() const { return topology_; }
  const PortMap& ports() const { return ports_; }
  int header_width() const { return header_width_; }
  int switch_count() const { return topology_.node_count(); }

  // Adds a policy entry; assigns and returns its EntryId. The entry's
  // switch/table/priority/match/set/action fields must be filled in.
  EntryId add_entry(FlowEntry e);

  // Removes a policy entry from its flow table. The entry keeps its id and
  // its slot in entries() — EntryIds are stable handles across the codebase
  // — but it stops matching: input_space(id) becomes empty, so a rule-graph
  // rebuild treats it as dead and RuleGraph::apply_entry_removed deactivates
  // it in place. Returns false if the id was already removed.
  bool remove_entry(EntryId id);
  bool is_removed(EntryId id) const {
    return static_cast<std::size_t>(id) < removed_.size() &&
           removed_[static_cast<std::size_t>(id)] != 0;
  }

  std::size_t entry_count() const { return entries_.size(); }
  const FlowEntry& entry(EntryId id) const {
    SDNPROBE_DCHECK_GE(id, 0);
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(id), entries_.size());
    return entries_[static_cast<std::size_t>(id)];
  }
  const std::vector<FlowEntry>& entries() const { return entries_; }

  // Number of tables a switch uses (max table_id + 1; >= 1).
  int table_count(SwitchId sw) const;
  const FlowTable& table(SwitchId sw, TableId t) const;

  // r.in for an entry (match minus earlier overlaps in its table, §V-A).
  hsa::HeaderSpace input_space(EntryId id) const;

  // Calls fn(id, input_space(id)) for every entry that is not removed, in
  // ascending id order. Id order, not table order: each result is handed
  // over as soon as it is computed, so callers allocate per-entry state in
  // id order.
  void for_each_input_space(
      const std::function<void(EntryId, hsa::HeaderSpace)>& fn) const;

  // The switch an entry forwards to, when its action is kOutput toward a
  // neighboring switch (nullopt for drop/host-port/controller/goto).
  std::optional<SwitchId> next_switch(EntryId id) const;

  // Where an entry hands packets off to, if anywhere: (switch, table 0) for
  // an output toward a neighboring switch, (own switch, next table) for
  // goto-table, nullopt for drop, controller and host ports. The rule
  // graph's edges and the linter's downstream checks both follow it.
  std::optional<std::pair<SwitchId, TableId>> handoff_target(
      const FlowEntry& e) const;

  // Longest chain of pairwise-overlapping rules in one table (the paper's
  // "maximum number of overlapping rules", §VIII-A).
  int max_overlap_chain() const;

 private:
  topo::Graph topology_;
  PortMap ports_;
  int header_width_ = 32;
  std::vector<FlowEntry> entries_;
  std::vector<std::uint8_t> removed_;  // tombstones, indexed by EntryId
  // tables_[switch][table]
  std::vector<std::vector<FlowTable>> tables_;
};

}  // namespace sdnprobe::flow

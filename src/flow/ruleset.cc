#include "flow/ruleset.h"

#include <algorithm>

#include "util/check.h"

namespace sdnprobe::flow {

PortMap::PortMap(const topo::Graph& g)
    : ports_(static_cast<std::size_t>(g.node_count())) {
  for (SwitchId s = 0; s < g.node_count(); ++s) {
    ports_[static_cast<std::size_t>(s)] = g.neighbors(s);
  }
}

std::optional<PortId> PortMap::port_to(SwitchId from, SwitchId to) const {
  const auto& p = ports_[static_cast<std::size_t>(from)];
  const auto it = std::find(p.begin(), p.end(), to);
  if (it == p.end()) return std::nullopt;
  return static_cast<PortId>(it - p.begin());
}

std::optional<SwitchId> PortMap::peer_of(SwitchId sw, PortId port) const {
  const auto& p = ports_[static_cast<std::size_t>(sw)];
  if (port < 0 || port >= static_cast<PortId>(p.size())) return std::nullopt;
  return p[static_cast<std::size_t>(port)];
}

PortId PortMap::host_port(SwitchId sw) const {
  return static_cast<PortId>(ports_[static_cast<std::size_t>(sw)].size());
}

RuleSet::RuleSet(topo::Graph topology, int header_width)
    : topology_(std::move(topology)),
      ports_(topology_),
      header_width_(header_width),
      tables_(static_cast<std::size_t>(topology_.node_count())) {}

EntryId RuleSet::add_entry(FlowEntry e) {
  SDNPROBE_CHECK_GE(e.switch_id, 0);
  SDNPROBE_CHECK_LT(e.switch_id, switch_count());
  SDNPROBE_CHECK_GE(e.table_id, 0);
  SDNPROBE_CHECK_EQ(e.match.width(), header_width_)
      << "match width must equal the ruleset header width";
  e.id = static_cast<EntryId>(entries_.size());
  if (e.set_field.width() == 0) {
    e.set_field = hsa::TernaryString::wildcard(header_width_);
  }
  SDNPROBE_CHECK_EQ(e.set_field.width(), header_width_)
      << "set field width must equal the ruleset header width";
  auto& sw_tables = tables_[static_cast<std::size_t>(e.switch_id)];
  if (static_cast<std::size_t>(e.table_id) >= sw_tables.size()) {
    sw_tables.resize(static_cast<std::size_t>(e.table_id) + 1);
  }
  sw_tables[static_cast<std::size_t>(e.table_id)].insert(e);
  entries_.push_back(std::move(e));
  removed_.push_back(0);
  return entries_.back().id;
}

bool RuleSet::remove_entry(EntryId id) {
  SDNPROBE_CHECK_GE(id, 0);
  SDNPROBE_CHECK_LT(static_cast<std::size_t>(id), entries_.size());
  if (removed_[static_cast<std::size_t>(id)]) return false;
  const FlowEntry& e = entries_[static_cast<std::size_t>(id)];
  auto& sw_tables = tables_[static_cast<std::size_t>(e.switch_id)];
  SDNPROBE_CHECK_LT(static_cast<std::size_t>(e.table_id), sw_tables.size());
  sw_tables[static_cast<std::size_t>(e.table_id)].erase(id);
  removed_[static_cast<std::size_t>(id)] = 1;
  return true;
}

int RuleSet::table_count(SwitchId sw) const {
  const auto& t = tables_[static_cast<std::size_t>(sw)];
  return std::max(1, static_cast<int>(t.size()));
}

const FlowTable& RuleSet::table(SwitchId sw, TableId t) const {
  static const FlowTable kEmpty;
  const auto& sw_tables = tables_[static_cast<std::size_t>(sw)];
  if (static_cast<std::size_t>(t) >= sw_tables.size()) return kEmpty;
  return sw_tables[static_cast<std::size_t>(t)];
}

hsa::HeaderSpace RuleSet::input_space(EntryId id) const {
  const FlowEntry& e = entry(id);
  return table(e.switch_id, e.table_id).input_space(id);
}

void RuleSet::for_each_input_space(
    const std::function<void(EntryId, hsa::HeaderSpace)>& fn) const {
  for (const FlowEntry& e : entries_) {
    if (!is_removed(e.id)) fn(e.id, input_space(e.id));
  }
}

std::optional<SwitchId> RuleSet::next_switch(EntryId id) const {
  const FlowEntry& e = entry(id);
  if (e.action.type != ActionType::kOutput) return std::nullopt;
  return ports_.peer_of(e.switch_id, e.action.out_port);
}

std::optional<std::pair<SwitchId, TableId>> RuleSet::handoff_target(
    const FlowEntry& e) const {
  switch (e.action.type) {
    case ActionType::kOutput: {
      const auto peer = ports_.peer_of(e.switch_id, e.action.out_port);
      if (!peer.has_value()) return std::nullopt;  // host port or invalid
      return std::make_pair(*peer, TableId{0});
    }
    case ActionType::kGotoTable:
      return std::make_pair(e.switch_id, e.action.next_table);
    case ActionType::kDrop:
    case ActionType::kToController:
      return std::nullopt;
  }
  return std::nullopt;
}

int RuleSet::max_overlap_chain() const {
  // For each entry, the number of strictly-higher-priority overlapping rules
  // above it plus itself; the max over entries is the deepest overlap chain
  // along one lookup.
  int best = 0;
  for (const auto& sw_tables : tables_) {
    for (const auto& t : sw_tables) {
      for (const auto& e : t.entries()) {
        const int chain =
            static_cast<int>(t.overlapping_above(e).size()) + 1;
        best = std::max(best, chain);
      }
    }
  }
  return best;
}

}  // namespace sdnprobe::flow

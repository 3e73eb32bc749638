// Flow entries: the OpenFlow 1.3 subset the paper's algorithms operate on.
// Each entry carries a ternary match field, an optional set field (header
// rewrite), a priority, and an action (output / drop / goto-table /
// to-controller), exactly the four labels a rule-graph vertex needs (§V-A).
#pragma once

#include <string>

#include "hsa/ternary.h"

namespace sdnprobe::flow {

using SwitchId = int;  // identical to topo::NodeId
using PortId = int;
using TableId = int;
using EntryId = int;

// Sentinel for "no port".
inline constexpr PortId kInvalidPort = -1;

enum class ActionType {
  kOutput,        // forward out of out_port
  kDrop,          // discard
  kGotoTable,     // continue matching in next_table (same switch)
  kToController,  // punt to the controller (used by test flow entries, §VI)
};

struct Action {
  ActionType type = ActionType::kDrop;
  PortId out_port = kInvalidPort;  // valid for kOutput
  TableId next_table = -1;         // valid for kGotoTable

  static Action output(PortId port) {
    return Action{ActionType::kOutput, port, -1};
  }
  static Action drop() { return Action{ActionType::kDrop, kInvalidPort, -1}; }
  static Action goto_table(TableId t) {
    return Action{ActionType::kGotoTable, kInvalidPort, t};
  }
  static Action to_controller() {
    return Action{ActionType::kToController, kInvalidPort, -1};
  }

  bool operator==(const Action& o) const {
    return type == o.type && out_port == o.out_port &&
           next_table == o.next_table;
  }
};

struct FlowEntry {
  EntryId id = -1;            // globally unique within a RuleSet
  SwitchId switch_id = -1;
  TableId table_id = 0;
  int priority = 0;
  hsa::TernaryString match;      // match field (ternary)
  hsa::TernaryString set_field;  // all-wildcard == identity (paper default)
  Action action;
  bool is_test_entry = false;  // installed by the prober (§VI), not policy

  std::string to_string() const;
};

}  // namespace sdnprobe::flow

#include "controller/controller.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace sdnprobe::controller {
namespace {
// Test entries must beat the terminal copy regardless of policy priorities.
constexpr int kTestEntryPriority = std::numeric_limits<int>::max() / 2;
// Test-entry ids live far above the policy range so that policy entries
// installed *after* controller construction (live churn via
// monitor::Monitor) can keep growing the RuleSet without ever colliding
// with an already-allocated test-entry id.
constexpr flow::EntryId kTestEntryIdBase = 1 << 24;
}  // namespace

Controller::Controller(const flow::RuleSet& rules, dataplane::Network& net)
    : rules_(&rules),
      net_(&net),
      next_entry_id_(std::max(static_cast<flow::EntryId>(rules.entry_count()),
                              kTestEntryIdBase)) {
  net_->set_packet_in_handler([this](flow::SwitchId sw,
                                     const dataplane::Packet& p,
                                     sim::SimTime t) {
    if (p.probe_id != 0 && probe_return_handler_) {
      probe_return_handler_(p.probe_id, sw, p, t);
    }
  });
}

flow::TableId Controller::test_table_for(flow::SwitchId sw) {
  const auto it = test_tables_.find(sw);
  if (it != test_tables_.end()) return it->second;
  const flow::TableId t = static_cast<flow::TableId>(
      std::max(rules_->table_count(sw), net_->table_count(sw)));
  test_tables_[sw] = t;
  return t;
}

TestPointId Controller::install_test_point(
    flow::EntryId terminal, const hsa::TernaryString& probe_header) {
  assert(probe_header.is_concrete());
  const flow::FlowEntry& r = rules_->entry(terminal);
  auto& state = terminals_[terminal];
  if (state.refcount == 0) {
    state.test_table = test_table_for(r.switch_id);
    state.original_action = r.action;
    state.original_set_field = r.set_field;
    // Step 1 (§VI): copy r into the test table, carrying its set field and
    // original action so fall-through traffic behaves identically. (The
    // paper duplicates the whole table; copying only the redirected entry is
    // semantically equivalent since only r's packets enter the test table.)
    flow::FlowEntry copy = r;
    copy.id = allocate_entry_id();
    copy.table_id = state.test_table;
    copy.is_test_entry = true;
    state.copy_id = copy.id;
    net_->install_entry(copy);
    ++flowmods_;
    // Step 3 (§VI): r forwards to the test table; its set field moves to the
    // copy so it is applied exactly once.
    net_->update_entry(r.switch_id, r.table_id, r.id,
                       hsa::TernaryString::wildcard(r.set_field.width()),
                       flow::Action::goto_table(state.test_table));
    ++flowmods_;
  }
  ++state.refcount;

  // Step 2 (§VI): exact-match test entry, highest priority, to controller.
  flow::FlowEntry test;
  test.id = allocate_entry_id();
  test.switch_id = r.switch_id;
  test.table_id = state.test_table;
  test.priority = kTestEntryPriority;
  test.match = probe_header;
  test.set_field = hsa::TernaryString::wildcard(probe_header.width());
  test.action = flow::Action::to_controller();
  test.is_test_entry = true;
  net_->install_entry(test);
  ++flowmods_;
  test_entries_[test.id] = {r.switch_id, state.test_table};
  return TestPointId{terminal, test.id};
}

void Controller::remove_test_point(const TestPointId& tp) {
  const auto te = test_entries_.find(tp.test_entry);
  if (te != test_entries_.end()) {
    net_->remove_entry(te->second.first, te->second.second, tp.test_entry);
    ++flowmods_;
    test_entries_.erase(te);
  }
  const auto it = terminals_.find(tp.terminal);
  if (it == terminals_.end()) return;
  TerminalState& state = it->second;
  if (--state.refcount > 0) return;
  // Last test point on r: restore r and drop the copy.
  const flow::FlowEntry& r = rules_->entry(tp.terminal);
  net_->update_entry(r.switch_id, r.table_id, r.id, state.original_set_field,
                     state.original_action);
  ++flowmods_;
  net_->remove_entry(r.switch_id, state.test_table, state.copy_id);
  ++flowmods_;
  terminals_.erase(it);
}

void Controller::send_packet(flow::SwitchId sw, dataplane::Packet p) {
  net_->packet_out(sw, std::move(p));
}

void Controller::send_packets(std::vector<dataplane::BatchPacketOut> batch) {
  net_->packet_out_batch(std::move(batch));
}

}  // namespace sdnprobe::controller

#include "controller/controller.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

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
                              kTestEntryIdBase)),
      terminal_slot_(rules.entry_count(), -1),
      test_tables_(static_cast<std::size_t>(rules.switch_count()), -1) {
  net_->set_packet_in_handler([this](flow::SwitchId sw,
                                     const dataplane::Packet& p,
                                     sim::SimTime t) {
    if (p.probe_id != 0 && probe_return_handler_) {
      probe_return_handler_(p.probe_id, sw, p, t);
    }
  });
}

flow::TableId Controller::test_table_for(flow::SwitchId sw) {
  flow::TableId& t = test_tables_[static_cast<std::size_t>(sw)];
  if (t < 0) {
    t = static_cast<flow::TableId>(
        std::max(rules_->table_count(sw), net_->table_count(sw)));
  }
  return t;
}

std::int32_t& Controller::slot_of(flow::EntryId terminal) {
  const auto i = static_cast<std::size_t>(terminal);
  if (i >= terminal_slot_.size()) {
    terminal_slot_.resize(std::max(i + 1, rules_->entry_count()), -1);
  }
  return terminal_slot_[i];
}

std::vector<TestPointId> Controller::install_test_points(
    std::span<const TestPointRequest> requests) {
  // The test-table entries the requests add, in request order. Sorted
  // stably by table, they say how to build the grouped batch in place.
  struct Staged {
    flow::SwitchId sw;
    flow::TableId table;
    flow::EntryId id;
    std::uint32_t request;
    bool copy;  // r's copy, else the test entry
  };
  std::vector<Staged> staged;
  std::vector<TestPointId> ids;
  ids.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const TestPointRequest& req = requests[i];
    assert(req.probe_header.is_concrete());
    const flow::FlowEntry& r = rules_->entry(req.terminal);
    const flow::TableId table = test_table_for(r.switch_id);
    const auto request = static_cast<std::uint32_t>(i);
    std::int32_t& slot = slot_of(req.terminal);
    if (slot < 0) {
      if (free_slots_.empty()) {
        slot = static_cast<std::int32_t>(terminals_.size());
        terminals_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      TerminalState& state = terminals_[static_cast<std::size_t>(slot)];
      state.original_action = r.action;
      state.original_set_field = r.set_field;
      // Step 1 (§VI): copy r into the test table, carrying its set field
      // and original action so fall-through traffic behaves identically.
      // (The paper duplicates the whole table; copying only the redirected
      // entry is semantically equivalent since only r's packets enter the
      // test table.)
      state.copy_id = allocate_entry_id();
      staged.push_back({r.switch_id, table, state.copy_id, request, true});
      ++flowmods_;
      // Step 3 (§VI): r forwards to the test table; its set field moves to
      // the copy so it is applied exactly once.
      net_->update_entry(r.switch_id, r.table_id, r.id,
                         hsa::TernaryString::wildcard(r.set_field.width()),
                         flow::Action::goto_table(table));
      ++flowmods_;
    }
    // Step 2 (§VI): exact-match test entry, highest priority, to controller.
    const flow::EntryId test_id = allocate_entry_id();
    staged.push_back({r.switch_id, table, test_id, request, false});
    ++flowmods_;
    terminals_[static_cast<std::size_t>(slot)].tests.push_back(test_id);
    ids.push_back(TestPointId{req.terminal, test_id, r.switch_id, table});
  }

  std::stable_sort(staged.begin(), staged.end(),
                   [](const Staged& a, const Staged& b) {
                     return std::tie(a.sw, a.table) < std::tie(b.sw, b.table);
                   });
  std::vector<flow::FlowEntry> batch;
  batch.reserve(staged.size());
  for (const Staged& st : staged) {
    const TestPointRequest& req = requests[st.request];
    if (st.copy) {
      flow::FlowEntry& copy = batch.emplace_back(rules_->entry(req.terminal));
      copy.id = st.id;
      copy.table_id = st.table;
      copy.is_test_entry = true;
    } else {
      flow::FlowEntry& test = batch.emplace_back();
      test.id = st.id;
      test.switch_id = st.sw;
      test.table_id = st.table;
      test.priority = kTestEntryPriority;
      test.match = req.probe_header;
      test.set_field = hsa::TernaryString::wildcard(req.probe_header.width());
      test.action = flow::Action::to_controller();
      test.is_test_entry = true;
    }
  }
  net_->install_entries(batch);
  return ids;
}

void Controller::remove_test_points(std::span<const TestPointId> tps) {
  // The test-table entries to erase, grouped per (switch, table) below.
  struct Doomed {
    flow::SwitchId sw;
    flow::TableId table;
    flow::EntryId id;
  };
  std::vector<Doomed> doomed;
  for (const TestPointId& tp : tps) {
    if (static_cast<std::size_t>(tp.terminal) >= terminal_slot_.size()) {
      continue;
    }
    std::int32_t& slot = terminal_slot_[static_cast<std::size_t>(tp.terminal)];
    if (slot < 0) continue;
    TerminalState& state = terminals_[static_cast<std::size_t>(slot)];
    const std::size_t live = state.tests.size();
    state.tests.erase_value(tp.test_entry);
    if (state.tests.size() == live) continue;  // removed before
    doomed.push_back({tp.sw, tp.table, tp.test_entry});
    ++flowmods_;
    if (!state.tests.empty()) continue;
    // Last test point on r: restore r and drop the copy.
    const flow::FlowEntry& r = rules_->entry(tp.terminal);
    net_->update_entry(r.switch_id, r.table_id, r.id, state.original_set_field,
                       state.original_action);
    ++flowmods_;
    doomed.push_back({tp.sw, tp.table, state.copy_id});
    ++flowmods_;
    free_slots_.push_back(slot);
    slot = -1;
  }

  std::sort(doomed.begin(), doomed.end(), [](const Doomed& a, const Doomed& b) {
    return std::tie(a.sw, a.table) < std::tie(b.sw, b.table);
  });
  std::vector<flow::EntryId> ids;
  ids.reserve(doomed.size());
  for (const Doomed& d : doomed) ids.push_back(d.id);
  for (std::size_t a = 0; a < doomed.size();) {
    std::size_t b = a + 1;
    while (b < doomed.size() && doomed[b].sw == doomed[a].sw &&
           doomed[b].table == doomed[a].table) {
      ++b;
    }
    net_->remove_entries(doomed[a].sw, doomed[a].table,
                         std::span(ids).subspan(a, b - a));
    a = b;
  }
}

void Controller::send_packet(flow::SwitchId sw, dataplane::Packet p) {
  net_->packet_out(sw, std::move(p));
}

void Controller::send_packets(std::vector<dataplane::BatchPacketOut> batch) {
  net_->packet_out_batch(std::move(batch));
}

}  // namespace sdnprobe::controller

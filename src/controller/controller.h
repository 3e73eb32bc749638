// The SDN controller's data-plane interface, standing in for the Ryu /
// OpenFlow 1.3 control channel the paper's implementation used (§VIII).
//
// Responsibilities:
//  * FlowMod-level management of test flow entries, including the paper's
//    §VI three-step terminal-switch procedure: (1) copy the terminal entry r
//    into a dedicated test table, (2) insert the exact-match test entry with
//    higher priority in that table, (3) rewrite r's instruction to
//    goto(test table). Normal traffic matching r is unaffected — it falls
//    through to the copy, which applies r's original set field and action.
//  * PacketOut injection of probes and PacketIn dispatch of returned probes.
//  * Allocation of entry ids above the policy range.
//
// Test-point bookkeeping is flat, since a probe round installs and removes
// one test point per probe: a handle carries its test entry's (switch,
// table), the test table of each switch is a vector slot, and each policy
// entry has an int32 slot index into a dense pool of per-terminal states,
// recycled through a free list (a state per entry would cost ~5 MB on the
// 82,740-entry Table II preset). The index grows when the policy does
// (monitor churn adds entries after construction).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dataplane/network.h"
#include "flow/ruleset.h"
#include "hsa/ternary.h"
#include "util/small_vector.h"

namespace sdnprobe::controller {

// Handle for one installed test point (one probe's terminal interception).
struct TestPointId {
  flow::EntryId terminal = -1;    // the tested terminal entry r
  flow::EntryId test_entry = -1;  // the exact-match to-controller entry
  flow::SwitchId sw = -1;         // where the test entry lives: r's switch
  flow::TableId table = -1;       // ... and its test table
};

// One test point to install: punt probes whose header equals
// `probe_header` at terminal entry `terminal`.
struct TestPointRequest {
  flow::EntryId terminal = -1;
  hsa::TernaryString probe_header;
};

class Controller {
 public:
  Controller(const flow::RuleSet& rules, dataplane::Network& net);

  // Installs one §VI test point per request and returns their handles in
  // request order: probes whose header equals the request's `probe_header`
  // at r's switch are punted to the controller instead of forwarded.
  // Multiple test points may coexist per terminal entry (refcounted).
  //
  // A probe round's FlowMods go out as one batch. Ids are allocated per
  // request in order (the copy's, when r gets its first test point, then
  // the test entry's), and r's redirect is an in-place update per request.
  // The test-table inserts are grouped per (switch, table) and each group
  // is one batched insert, so the runtime tables end up exactly as
  // installing the requests one by one would leave them.
  std::vector<TestPointId> install_test_points(
      std::span<const TestPointRequest> requests);
  TestPointId install_test_point(flow::EntryId terminal,
                                 const hsa::TernaryString& probe_header) {
    const TestPointRequest request{terminal, probe_header};
    return install_test_points(std::span(&request, 1)).front();
  }

  // Removes test points; a terminal entry is restored when its last test
  // point goes away. Batched like install_test_points: per-request
  // refcounts and restores, one batched erase per touched test table.
  // Removing a handle that was already removed (or repeating one in a
  // batch) is a no-op: it issues no FlowMod and leaves refcounts alone.
  void remove_test_points(std::span<const TestPointId> tps);
  void remove_test_point(const TestPointId& tp) {
    remove_test_points(std::span(&tp, 1));
  }

  // Number of FlowMod operations issued since construction (for overhead
  // accounting in benches).
  std::uint64_t flowmod_count() const { return flowmods_; }

  // Injects a packet at a switch (PacketOut through the pipeline).
  void send_packet(flow::SwitchId sw, dataplane::Packet p);

  // PacketOut of a whole probe round: each item is sent at its send_at
  // timestamp, exactly as a send_packet call at that time would be.
  void send_packets(std::vector<dataplane::BatchPacketOut> batch);

  // Called for every probe PacketIn: (probe id, switch it returned from,
  // packet, simulated arrival time).
  using ProbeReturnHandler = std::function<void(
      std::uint64_t, flow::SwitchId, const dataplane::Packet&, sim::SimTime)>;
  void set_probe_return_handler(ProbeReturnHandler h) {
    probe_return_handler_ = std::move(h);
  }

  const flow::RuleSet& rules() const { return *rules_; }
  dataplane::Network& network() { return *net_; }

 private:
  flow::EntryId allocate_entry_id() { return next_entry_id_++; }
  flow::TableId test_table_for(flow::SwitchId sw);

  // A redirected terminal entry r: its copy in the test table, what the
  // redirect replaced, and the test entries live on it (the refcount).
  struct TerminalState {
    flow::EntryId copy_id = -1;
    flow::Action original_action;
    hsa::TernaryString original_set_field;
    util::SmallVec<flow::EntryId, 2> tests;
  };

  // r's pool slot, or -1 when r has no test point.
  std::int32_t& slot_of(flow::EntryId terminal);

  const flow::RuleSet* rules_;
  dataplane::Network* net_;
  flow::EntryId next_entry_id_;
  std::uint64_t flowmods_ = 0;
  std::vector<std::int32_t> terminal_slot_;  // by policy entry id
  std::vector<TerminalState> terminals_;     // the pool
  std::vector<std::int32_t> free_slots_;
  std::vector<flow::TableId> test_tables_;  // by switch; -1 = none yet
  ProbeReturnHandler probe_return_handler_;
};

}  // namespace sdnprobe::controller

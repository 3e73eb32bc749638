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
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "dataplane/network.h"
#include "flow/ruleset.h"
#include "hsa/ternary.h"

namespace sdnprobe::controller {

// Handle for one installed test point (one probe's terminal interception).
struct TestPointId {
  flow::EntryId terminal = -1;    // the tested terminal entry r
  flow::EntryId test_entry = -1;  // the exact-match to-controller entry
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

  struct TerminalState {
    flow::TableId test_table = -1;
    flow::EntryId copy_id = -1;
    flow::Action original_action;
    hsa::TernaryString original_set_field;
    int refcount = 0;
  };

  const flow::RuleSet* rules_;
  dataplane::Network* net_;
  flow::EntryId next_entry_id_;
  std::uint64_t flowmods_ = 0;
  std::map<flow::EntryId, TerminalState> terminals_;
  std::map<flow::SwitchId, flow::TableId> test_tables_;
  // test entry id -> (switch, table) for removal.
  std::map<flow::EntryId, std::pair<flow::SwitchId, flow::TableId>>
      test_entries_;
  ProbeReturnHandler probe_return_handler_;
};

}  // namespace sdnprobe::controller

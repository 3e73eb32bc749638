// The data-plane simulator: OpenFlow-1.3-semantics switches (multi-table
// pipeline, priority matching, set-field, goto-table, output/drop/
// to-controller) connected per the topology, driven by the discrete-event
// loop, with fault injection per dataplane::FaultInjector.
//
// This is the reproduction's stand-in for Mininet + Open vSwitch (§VIII
// "Implementation"): it executes the same forwarding semantics the paper's
// emulation exercised, while giving experiments a precise simulated clock.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "dataplane/channel_model.h"
#include "dataplane/fault.h"
#include "dataplane/packet.h"
#include "flow/ruleset.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"

namespace sdnprobe::dataplane {

// One-way controller <-> switch control-channel latency (PacketOut /
// PacketIn / FlowMod). Public because the prober's round pacing waits one
// control round trip after installing and after removing test points.
inline constexpr double kControlLatencyS = 1e-3;

struct NetworkConfig {
  // Environmental noise (error-prone channels). All rates default to zero:
  // a default-constructed Network is noiseless and bit-identical to one
  // built before the channel model existed. Orthogonal to FaultInjector,
  // which models *rule* faults; see channel_model.h.
  ChannelModelConfig channel;
};

// One PacketOut of a batched injection round: inject `packet` into `sw` at
// simulated time `send_at` (plus the control-channel latency).
struct BatchPacketOut {
  flow::SwitchId sw = 0;
  Packet packet;
  sim::SimTime send_at = 0.0;
};

struct NetworkCounters {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_forwarded = 0;   // switch-to-switch hops
  std::uint64_t packets_dropped = 0;     // drop action or table miss
  std::uint64_t table_misses = 0;
  std::uint64_t host_deliveries = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t hop_limit_drops = 0;
};

class Network {
 public:
  // (switch the PacketIn came from, the packet, simulated arrival time)
  using PacketInHandler =
      std::function<void(flow::SwitchId, const Packet&, sim::SimTime)>;
  using HostDeliveryHandler =
      std::function<void(flow::SwitchId, const Packet&, sim::SimTime)>;

  // Programs every policy entry of `rules` into the switches. The RuleSet
  // (and its topology) must outlive the Network.
  Network(const flow::RuleSet& rules, sim::EventLoop& loop,
          NetworkConfig config = {});

  // --- Control-channel operations (used by controller::Controller). ---

  // These apply at once. The control-channel latency is the caller's to
  // wait out: core::ProbeRound waits one control round trip after a round's
  // installs and again after its removals.

  // Installs additional entries (e.g. test flow entries), each into its
  // (switch, table); a table beyond the switch's last is created. Entry ids
  // must be unique network-wide; ids above the policy range are the
  // caller's to manage. Every run of consecutive entries for one table goes
  // in as one batched FlowTable::insert, so a batch grouped by table costs
  // one pass per table and leaves the tables as installing the entries one
  // by one, in span order, would.
  void install_entries(std::span<const flow::FlowEntry> entries);
  void install_entry(const flow::FlowEntry& e) {
    install_entries(std::span(&e, 1));
  }

  // Removes entries by id from one table in one batched FlowTable::erase;
  // ids the table does not hold are skipped.
  void remove_entries(flow::SwitchId sw, flow::TableId table,
                      std::span<const flow::EntryId> ids);
  void remove_entry(flow::SwitchId sw, flow::TableId table, flow::EntryId id) {
    remove_entries(sw, table, std::span(&id, 1));
  }

  // Replaces action and set field together. Used when redirecting a terminal
  // entry to its test table: the set field moves to the table's copy so the
  // rewrite is applied exactly once.
  void update_entry(flow::SwitchId sw, flow::TableId table, flow::EntryId id,
                    const hsa::TernaryString& set_field,
                    const flow::Action& action);

  // Injects a packet into a switch's pipeline (OpenFlow PacketOut with
  // OFPP_TABLE), after the control-channel latency.
  void packet_out(flow::SwitchId sw, Packet p);

  // Batched PacketOut: schedules packet_out(item.sw, item.packet) at each
  // item's send_at, so delivery times and order, counters, channel draws
  // and PacketIn handler calls are those of calling packet_out then.
  void packet_out_batch(std::vector<BatchPacketOut> items);

  void set_packet_in_handler(PacketInHandler h) {
    packet_in_handler_ = std::move(h);
  }
  void set_host_delivery_handler(HostDeliveryHandler h) {
    host_delivery_handler_ = std::move(h);
  }

  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  // The environmental-noise source (per-link overrides, noise counters).
  ChannelModel& channel() { return channel_; }
  const ChannelModel& channel() const { return channel_; }

  const NetworkCounters& counters() const { return counters_; }
  const flow::RuleSet& rules() const { return *rules_; }
  sim::EventLoop& loop() { return *loop_; }

  // Ground truth for evaluation: switches owning at least one faulty entry.
  std::vector<flow::SwitchId> faulty_switches() const;

  // Number of runtime tables currently on a switch.
  int table_count(flow::SwitchId sw) const;

  // Read-only view of one runtime table (tests / debugging): the live
  // entry order after installs, removals, and action updates.
  const flow::FlowTable& runtime_table(flow::SwitchId sw,
                                       flow::TableId table) const;

 private:
  // Runs a packet through switch `sw` starting at `table`.
  void process(flow::SwitchId sw, Packet p, flow::TableId table);
  // Emits the packet out of (sw, port): link to peer, or host delivery.
  void emit(flow::SwitchId sw, flow::PortId port, Packet p);
  void arrive(flow::SwitchId sw, Packet p);

  // Carries out the channel's verdict on one transmission (a link hop or a
  // control-channel transit): schedules `deliver` for each surviving copy
  // after `base_delay` plus that copy's jitter. The last copy takes
  // `deliver` by move.
  void transit(const ChannelModel::Delivery& d, double base_delay,
               std::function<void()> deliver);

  const flow::RuleSet* rules_;
  sim::EventLoop* loop_;
  FaultInjector faults_;
  ChannelModel channel_;
  // Runtime tables: tables_[switch][table]. Seeded from the RuleSet, then
  // mutated by install/remove/update_entry.
  std::vector<std::vector<flow::FlowTable>> tables_;
  PacketInHandler packet_in_handler_;
  HostDeliveryHandler host_delivery_handler_;
  NetworkCounters counters_;
  // Telemetry instruments, resolved once at construction; each add()
  // branches on the global registry's enabled flag (near-zero when off).
  // NetworkCounters stays the per-instance ground truth for tests; the
  // registry aggregates across Network instances and into run artifacts.
  struct Instruments {
    telemetry::Counter* packet_outs;
    telemetry::Counter* packet_ins;
    telemetry::Counter* forwarded;
    telemetry::Counter* dropped;
    telemetry::Counter* faults_applied;
    telemetry::Counter* host_deliveries;
  };
  Instruments tm_;
};

}  // namespace sdnprobe::dataplane

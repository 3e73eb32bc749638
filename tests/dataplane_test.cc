// Tests for the event loop and the data-plane simulator: OpenFlow pipeline
// semantics, fault behaviors, and the §VI test-point mechanics via the
// controller.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "dataplane/network.h"
#include "sim/event_loop.h"

namespace sdnprobe {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

TEST(EventLoop, OrdersByTimeThenFifo) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(2.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(1.0, [&] { order.push_back(2); });  // same time: FIFO
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
}

TEST(EventLoop, RunUntilLeavesLaterEvents) {
  sim::EventLoop loop;
  int hits = 0;
  loop.schedule_at(1.0, [&] { ++hits; });
  loop.schedule_at(5.0, [&] { ++hits; });
  loop.run_until(2.0);
  EXPECT_EQ(hits, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, CallbacksMayScheduleMore) {
  sim::EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) loop.schedule_in(0.1, chain);
  };
  loop.schedule_in(0.1, chain);
  loop.run();
  EXPECT_EQ(depth, 5);
}

// A 3-switch line: 0 -- 1 -- 2, with one forwarding rule per switch for the
// 001xxxxx flow, delivered to the host port at switch 2.
flow::RuleSet line_rules() {
  topo::Graph g(3);
  g.add_edge(0, 1, 1e-3);
  g.add_edge(1, 2, 1e-3);
  flow::RuleSet rs(g, 8);
  for (flow::SwitchId s = 0; s < 3; ++s) {
    flow::FlowEntry e;
    e.switch_id = s;
    e.priority = 10;
    e.match = ts("001xxxxx");
    e.action = s < 2 ? flow::Action::output(*rs.ports().port_to(s, s + 1))
                     : flow::Action::output(rs.ports().host_port(2));
    rs.add_entry(e);
  }
  return rs;
}

TEST(Network, ForwardsAlongPipeline) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId sw, const dataplane::Packet& p, sim::SimTime) {
        ++delivered;
        EXPECT_EQ(sw, 2);
        EXPECT_EQ(p.trace, (std::vector<flow::SwitchId>{0, 1, 2}));
        EXPECT_EQ(p.entry_trace.size(), 3u);
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  net.packet_out(0, pkt);
  loop.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.counters().table_misses, 0u);
}

TEST(Network, TableMissDrops) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  dataplane::Packet pkt;
  pkt.header = ts("11110101");  // matches nothing
  net.packet_out(0, pkt);
  loop.run();
  EXPECT_EQ(net.counters().table_misses, 1u);
  EXPECT_EQ(net.counters().packets_dropped, 1u);
}

TEST(Network, DropFaultSwallowsPacket) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  const auto f = dataplane::FaultSpec::Drop();
  net.faults().add_fault(1, f);  // entry id 1 = switch 1's rule
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++delivered;
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  net.packet_out(0, pkt);
  loop.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.counters().faults_applied, 1u);
}

TEST(Network, ModifyFaultAltersHeader) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  const auto f =
      dataplane::FaultSpec::Modify(ts("xxxxx111"));  // corrupt host bits only
  net.faults().add_fault(0, f);
  hsa::TernaryString seen(8);
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet& p, sim::SimTime) {
        seen = p.header;
        EXPECT_TRUE(p.tampered);
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110000");
  net.packet_out(0, pkt);
  loop.run();
  EXPECT_EQ(seen.to_string(), "00110111");
}

TEST(Network, DetourSkipsIntermediateSwitch) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  // Tunnel from switch 0 straight to switch 2.
  const auto f = dataplane::FaultSpec::Detour(/*partner=*/2);
  net.faults().add_fault(0, f);
  std::vector<flow::SwitchId> trace;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet& p, sim::SimTime) {
        trace = p.trace;
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  net.packet_out(0, pkt);
  loop.run();
  // Switch 1 never saw the packet: the colluders bypassed it.
  EXPECT_EQ(trace, (std::vector<flow::SwitchId>{0, 2}));
}

TEST(Network, IntermittentFaultRespectsWindows) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  // Active in [0, 0.5), inactive in [0.5, 1.0).
  const auto f = dataplane::FaultSpec::Drop().intermittent(1.0, 0.5, 0.0);
  net.faults().add_fault(0, f);
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++delivered;
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  // Arrives at switch 0 at ~t+1ms+proc: schedule to land in each half.
  loop.schedule_at(0.2, [&] { net.packet_out(0, pkt); });   // active: drop
  loop.schedule_at(0.7, [&] { net.packet_out(0, pkt); });   // inactive: pass
  loop.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, TargetingFaultHitsOnlyVictimHeaders) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  const auto f = dataplane::FaultSpec::Drop().targeting(
      ts("0011xx11"));  // only this sub-cube is affected
  net.faults().add_fault(0, f);
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++delivered;
      });
  dataplane::Packet victim;
  victim.header = ts("00110011");
  dataplane::Packet bystander;
  bystander.header = ts("00110000");
  net.packet_out(0, victim);
  net.packet_out(0, bystander);
  loop.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Controller, TestPointReturnsProbeAndPreservesTraffic) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  // Probe header vs. a normal packet sharing the terminal rule.
  const auto probe_hdr = ts("00101010");
  const auto tp = ctrl.install_test_point(/*terminal=*/2, probe_hdr);

  int probe_returns = 0;
  ctrl.set_probe_return_handler([&](std::uint64_t id, flow::SwitchId sw,
                                    const dataplane::Packet& p, sim::SimTime) {
    ++probe_returns;
    EXPECT_EQ(id, 42u);
    EXPECT_EQ(sw, 2);
    EXPECT_TRUE(p.header == probe_hdr);
  });
  int host_deliveries = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++host_deliveries;
      });

  dataplane::Packet probe;
  probe.header = probe_hdr;
  probe.probe_id = 42;
  ctrl.send_packet(0, probe);
  dataplane::Packet normal;
  normal.header = ts("00110000");
  ctrl.send_packet(0, normal);
  loop.run();
  EXPECT_EQ(probe_returns, 1);
  EXPECT_EQ(host_deliveries, 1) << "normal traffic must be unaffected (§VI)";

  // Teardown restores the original pipeline: the probe header now flows to
  // the host like any packet.
  ctrl.remove_test_point(tp);
  ctrl.send_packet(0, probe);
  loop.run();
  EXPECT_EQ(probe_returns, 1);
  EXPECT_EQ(host_deliveries, 2);
}

TEST(Controller, TestPointRefcountTwoProbesSameTerminal) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);
  const auto tp1 = ctrl.install_test_point(2, ts("00101010"));
  const auto tp2 = ctrl.install_test_point(2, ts("00101011"));
  ctrl.remove_test_point(tp1);
  // Second test point must still capture its probe.
  int returns = 0;
  ctrl.set_probe_return_handler(
      [&](std::uint64_t, flow::SwitchId, const dataplane::Packet&,
          sim::SimTime) { ++returns; });
  dataplane::Packet probe;
  probe.header = ts("00101011");
  probe.probe_id = 1;
  ctrl.send_packet(0, probe);
  loop.run();
  EXPECT_EQ(returns, 1);
  ctrl.remove_test_point(tp2);
}

// Every runtime table of `a` equals `b`'s, entry by entry.
void expect_same_tables(const dataplane::Network& a,
                        const dataplane::Network& b, int switches) {
  for (flow::SwitchId s = 0; s < switches; ++s) {
    ASSERT_EQ(a.table_count(s), b.table_count(s)) << "switch " << s;
    for (flow::TableId t = 0; t < a.table_count(s); ++t) {
      const auto& x = a.runtime_table(s, t).entries();
      const auto& y = b.runtime_table(s, t).entries();
      ASSERT_EQ(x.size(), y.size()) << "switch " << s << " table " << t;
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].id, y[i].id) << "switch " << s << " table " << t;
        EXPECT_EQ(x[i].priority, y[i].priority);
        EXPECT_EQ(x[i].match, y[i].match);
        EXPECT_EQ(x[i].set_field, y[i].set_field);
        EXPECT_TRUE(x[i].action == y[i].action);
      }
    }
  }
}

TEST(Controller, BatchedTestPointsMatchOneByOne) {
  // Four overlapping policy entries per switch on the 3-switch line, one
  // with a set field; ids 4s .. 4s+3 on switch s.
  topo::Graph g(3);
  g.add_edge(0, 1, 1e-3);
  g.add_edge(1, 2, 1e-3);
  flow::RuleSet rs(g, 8);
  const char* matches[] = {"001xxxxx", "0010xxxx", "01xxxxxx", "xxxxxxxx"};
  const int priorities[] = {10, 10, 5, 1};
  for (flow::SwitchId s = 0; s < 3; ++s) {
    for (int k = 0; k < 4; ++k) {
      flow::FlowEntry e;
      e.switch_id = s;
      e.priority = priorities[k];
      e.match = ts(matches[k]);
      if (k == 1) e.set_field = ts("xxxxxxx1");
      e.action = s < 2 ? flow::Action::output(*rs.ports().port_to(s, s + 1))
                       : flow::Action::output(rs.ports().host_port(2));
      rs.add_entry(e);
    }
  }
  // Three test points share terminal 1, two share 11; terminals 0, 1 and 2
  // share switch 0's test table.
  const std::vector<controller::TestPointRequest> round = {
      {1, ts("00100000")}, {4, ts("00111111")},  {1, ts("00100001")},
      {0, ts("00110000")}, {11, ts("10000000")}, {2, ts("01010101")},
      {1, ts("00101111")}, {11, ts("11111111")}, {6, ts("01000000")},
  };

  sim::EventLoop loop;
  dataplane::Network batched_net(rs, loop);
  dataplane::Network twin_net(rs, loop);
  controller::Controller batched(rs, batched_net);
  controller::Controller twin(rs, twin_net);

  const std::vector<controller::TestPointId> tps =
      batched.install_test_points(round);
  std::vector<controller::TestPointId> twin_tps;
  for (const auto& req : round) {
    twin_tps.push_back(twin.install_test_point(req.terminal, req.probe_header));
  }
  ASSERT_EQ(tps.size(), twin_tps.size());
  for (std::size_t i = 0; i < tps.size(); ++i) {
    EXPECT_EQ(tps[i].terminal, twin_tps[i].terminal);
    EXPECT_EQ(tps[i].test_entry, twin_tps[i].test_entry);
  }
  EXPECT_EQ(batched.flowmod_count(), twin.flowmod_count());
  // Switch 0's test table holds a copy of terminals 0, 1 and 2 and their
  // five test entries.
  EXPECT_EQ(batched_net.table_count(0), 2);
  EXPECT_EQ(batched_net.runtime_table(0, 1).size(), 3u + 5u);
  expect_same_tables(batched_net, twin_net, 3);

  batched.remove_test_points(tps);
  for (const auto& tp : twin_tps) twin.remove_test_point(tp);
  EXPECT_EQ(batched.flowmod_count(), twin.flowmod_count());
  // Per request a test-entry insert and erase; per terminal (six) a copy
  // insert, redirect, restore and copy erase.
  EXPECT_EQ(batched.flowmod_count(), 2u * round.size() + 4u * 6u);
  EXPECT_TRUE(batched_net.runtime_table(0, 1).empty());
  expect_same_tables(batched_net, twin_net, 3);
}

TEST(Controller, RemovingARemovedTestPointIsANoOp) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);
  const auto tp1 = ctrl.install_test_point(2, ts("00101010"));
  const auto tp2 = ctrl.install_test_point(2, ts("00101011"));
  ctrl.remove_test_point(tp1);
  const std::uint64_t flowmods = ctrl.flowmod_count();
  // Again, alone and twice in one batch: no FlowMod, and the terminal
  // stays redirected for tp2.
  ctrl.remove_test_point(tp1);
  const std::vector<controller::TestPointId> again = {tp1, tp1};
  ctrl.remove_test_points(again);
  EXPECT_EQ(ctrl.flowmod_count(), flowmods);
  EXPECT_EQ(net.runtime_table(2, 1).size(), 2u);  // r's copy and tp2

  int returns = 0;
  ctrl.set_probe_return_handler(
      [&](std::uint64_t, flow::SwitchId, const dataplane::Packet&,
          sim::SimTime) { ++returns; });
  dataplane::Packet probe;
  probe.header = ts("00101011");
  probe.probe_id = 1;
  ctrl.send_packet(0, probe);
  loop.run();
  EXPECT_EQ(returns, 1) << "tp2 must still capture its probe";

  // A batch naming tp2 twice removes it once and restores r once.
  const std::vector<controller::TestPointId> both = {tp2, tp2};
  ctrl.remove_test_points(both);
  EXPECT_EQ(ctrl.flowmod_count(), flowmods + 3u);
  EXPECT_TRUE(net.runtime_table(2, 1).empty());
  ctrl.remove_test_point(tp2);
  EXPECT_EQ(ctrl.flowmod_count(), flowmods + 3u);
}

TEST(Controller, TestPointsOnEntriesAddedAfterConstruction) {
  // Monitor churn adds policy entries (to the RuleSet and the network)
  // after the controller exists; their test points must work like those on
  // entries the controller saw at construction.
  flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);
  const auto early = ctrl.install_test_point(1, ts("00100000"));
  std::vector<flow::EntryId> added;
  for (flow::SwitchId s = 0; s < 3; ++s) {
    flow::FlowEntry e;
    e.switch_id = s;
    e.priority = 20;
    e.match = ts("0011xxxx");
    if (s == 0) e.set_field = ts("xxxxxxx1");
    e.action = s < 2 ? flow::Action::output(*rs.ports().port_to(s, s + 1))
                     : flow::Action::output(rs.ports().host_port(2));
    added.push_back(rs.add_entry(e));
    net.install_entry(rs.entry(added.back()));
  }
  ASSERT_EQ(added.back(), 5);

  // The twin sees every entry from the start.
  dataplane::Network twin_net(rs, loop);
  controller::Controller twin(rs, twin_net);
  const auto twin_early = twin.install_test_point(1, ts("00100000"));

  const std::vector<controller::TestPointRequest> round = {
      {5, ts("00110001")}, {1, ts("00100001")}, {5, ts("00111111")},
      {3, ts("00110101")}, {2, ts("00101111")},
  };
  const auto tps = ctrl.install_test_points(round);
  const auto twin_tps = twin.install_test_points(round);
  ASSERT_EQ(tps.size(), twin_tps.size());
  for (std::size_t i = 0; i < tps.size(); ++i) {
    EXPECT_EQ(tps[i].test_entry, twin_tps[i].test_entry);
    EXPECT_EQ(tps[i].sw, twin_tps[i].sw);
    EXPECT_EQ(tps[i].table, twin_tps[i].table);
  }
  EXPECT_EQ(ctrl.flowmod_count(), twin.flowmod_count());
  expect_same_tables(net, twin_net, 3);

  // A probe for the added terminal 5 returns from switch 2 with the
  // header switch 0's added entry rewrote.
  int returns = 0;
  ctrl.set_probe_return_handler([&](std::uint64_t, flow::SwitchId sw,
                                    const dataplane::Packet& p,
                                    sim::SimTime) {
    ++returns;
    EXPECT_EQ(sw, 2);
    EXPECT_TRUE(p.header == ts("00110001"));
  });
  dataplane::Packet probe;
  probe.header = ts("00110000");
  probe.probe_id = 7;
  ctrl.send_packet(0, probe);
  loop.run();
  EXPECT_EQ(returns, 1);

  ctrl.remove_test_points(tps);
  twin.remove_test_points(twin_tps);
  ctrl.remove_test_point(early);
  twin.remove_test_point(twin_early);
  EXPECT_EQ(ctrl.flowmod_count(), twin.flowmod_count());
  expect_same_tables(net, twin_net, 3);
  for (flow::SwitchId s = 0; s < 3; ++s) {
    EXPECT_TRUE(net.runtime_table(s, 1).empty()) << "switch " << s;
  }
}

// --- packet_out_batch equivalence ---------------------------------------
//
// Batched injection must be observationally identical to looping
// packet_out: same host-delivery and PacketIn events, same simulated
// timestamps, same order, same counters. Verified on the noiseless fast
// path (run coalescing + PacketIn flush) and on a noisy channel (per-packet
// fallback keeps the ChannelModel draw stream aligned).

// One observable event, with full fidelity: kind (0 = host delivery,
// 1 = PacketIn), location, time, identity, and route taken.
struct Obs {
  int kind;
  flow::SwitchId sw;
  sim::SimTime t;
  std::uint64_t probe_id;
  std::vector<flow::SwitchId> trace;
  bool operator==(const Obs&) const = default;
};

// Switch 2 punts 0011xxxx to the controller and delivers the rest of
// 001xxxxx to its host, so one injection mix exercises both event kinds.
flow::RuleSet punt_rules() {
  topo::Graph g(3);
  g.add_edge(0, 1, 1e-3);
  g.add_edge(1, 2, 1e-3);
  flow::RuleSet rs(g, 8);
  for (flow::SwitchId s = 0; s < 3; ++s) {
    flow::FlowEntry e;
    e.switch_id = s;
    e.priority = 10;
    e.match = ts("001xxxxx");
    e.action = s < 2 ? flow::Action::output(*rs.ports().port_to(s, s + 1))
                     : flow::Action::output(rs.ports().host_port(2));
    rs.add_entry(e);
  }
  flow::FlowEntry punt;
  punt.switch_id = 2;
  punt.priority = 20;
  punt.match = ts("0011xxxx");
  punt.action = flow::Action::to_controller();
  rs.add_entry(punt);
  return rs;
}

std::vector<dataplane::BatchPacketOut> batch_items() {
  std::vector<dataplane::BatchPacketOut> items;
  const char* headers[] = {"00101010", "00110000", "00101111", "00110101",
                           "00100001", "00111111", "00101100", "00110011"};
  sim::SimTime t = 0.01;
  for (std::uint64_t i = 0; i < 8; ++i) {
    dataplane::Packet p;
    p.header = ts(headers[i]);
    p.probe_id = i + 1;
    items.push_back({0, std::move(p), t});
    // Three same-time runs: {0,1,2}, {3,4}, {5}, {6,7}.
    if (i == 2 || i == 4 || i == 5) t += 0.005;
  }
  return items;
}

std::pair<std::vector<Obs>, dataplane::NetworkCounters> run_injection(
    const flow::RuleSet& rs, const dataplane::NetworkConfig& cfg,
    bool batched) {
  sim::EventLoop loop;
  dataplane::Network net(rs, loop, cfg);
  std::vector<Obs> obs;
  net.set_host_delivery_handler(
      [&](flow::SwitchId sw, const dataplane::Packet& p, sim::SimTime t) {
        obs.push_back({0, sw, t, p.probe_id, p.trace});
      });
  net.set_packet_in_handler(
      [&](flow::SwitchId sw, const dataplane::Packet& p, sim::SimTime t) {
        obs.push_back({1, sw, t, p.probe_id, p.trace});
      });
  auto items = batch_items();
  if (batched) {
    net.packet_out_batch(std::move(items));
  } else {
    for (auto& it : items) {
      loop.schedule_at(it.send_at,
                       [&net, sw = it.sw, p = std::move(it.packet)] {
                         net.packet_out(sw, p);
                       });
    }
  }
  loop.run();
  return {std::move(obs), net.counters()};
}

void expect_counters_eq(const dataplane::NetworkCounters& a,
                        const dataplane::NetworkCounters& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_forwarded, b.packets_forwarded);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.table_misses, b.table_misses);
  EXPECT_EQ(a.host_deliveries, b.host_deliveries);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.hop_limit_drops, b.hop_limit_drops);
}

TEST(Network, BatchPacketOutMatchesSequentialNoiseless) {
  const flow::RuleSet rs = punt_rules();
  const dataplane::NetworkConfig cfg;
  const auto [seq_obs, seq_ctr] = run_injection(rs, cfg, /*batched=*/false);
  const auto [bat_obs, bat_ctr] = run_injection(rs, cfg, /*batched=*/true);
  ASSERT_EQ(seq_obs.size(), 8u);  // 4 host deliveries + 4 PacketIns
  EXPECT_EQ(bat_obs, seq_obs);
  expect_counters_eq(bat_ctr, seq_ctr);
}

TEST(Network, BatchPacketOutMatchesSequentialNoisy) {
  const flow::RuleSet rs = punt_rules();
  dataplane::NetworkConfig cfg;
  cfg.channel.link_loss = 0.2;
  cfg.channel.control_loss = 0.2;
  cfg.channel.control_dup = 0.1;
  cfg.channel.control_jitter_s = 2e-4;
  cfg.channel.seed = 77;
  const auto [seq_obs, seq_ctr] = run_injection(rs, cfg, /*batched=*/false);
  const auto [bat_obs, bat_ctr] = run_injection(rs, cfg, /*batched=*/true);
  // Noise must actually have bitten for the comparison to mean anything.
  EXPECT_LT(seq_obs.size(), 8u);
  EXPECT_EQ(bat_obs, seq_obs);
  expect_counters_eq(bat_ctr, seq_ctr);
}

}  // namespace
}  // namespace sdnprobe

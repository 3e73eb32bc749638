// Environmental-noise tests: ChannelModel unit behavior (loss, duplication,
// jitter, seeding, per-link overrides), composed fault modifiers
// (intermittent × targeting on one entry), and the localizer's loss
// tolerance — confirmation retries absorbing channel loss, and adaptive
// timeouts interacting with detour_extra_latency_s.
#include <gtest/gtest.h>

#include <memory>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/channel_model.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "sim/event_loop.h"
#include "topo/generator.h"

namespace sdnprobe {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

TEST(ChannelModel, DefaultConfigIsNoiseless) {
  dataplane::ChannelModel cm;
  // Every transmission goes through the model; with zero rates it must
  // pass everything through untouched.
  const auto d = cm.on_link(0, 1);
  EXPECT_EQ(d.copies, 1);
  EXPECT_EQ(d.extra_delay_s[0], 0.0);
}

TEST(ChannelModel, CertainLossDropsEveryTransmission) {
  dataplane::ChannelModelConfig cfg;
  cfg.link_loss = 1.0;
  dataplane::ChannelModel cm(cfg);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(cm.on_link(0, 1).copies, 0);
  EXPECT_EQ(cm.counters().link_transmissions, 32u);
  EXPECT_EQ(cm.counters().link_drops, 32u);
}

TEST(ChannelModel, CertainDuplicationDeliversTwoCopies) {
  dataplane::ChannelModelConfig cfg;
  cfg.control_dup = 1.0;
  dataplane::ChannelModel cm(cfg);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(cm.on_control().copies, 2);
  EXPECT_EQ(cm.counters().control_dups, 32u);
  EXPECT_EQ(cm.counters().control_drops, 0u);
}

TEST(ChannelModel, JitterStaysWithinBound) {
  dataplane::ChannelModelConfig cfg;
  cfg.link_jitter_s = 5e-3;
  cfg.link_dup = 1.0;  // exercise both copies' draws
  dataplane::ChannelModel cm(cfg);
  for (int i = 0; i < 256; ++i) {
    const auto d = cm.on_link(1, 2);
    ASSERT_EQ(d.copies, 2);
    for (int c = 0; c < d.copies; ++c) {
      EXPECT_GE(d.extra_delay_s[c], 0.0);
      EXPECT_LT(d.extra_delay_s[c], 5e-3);
    }
  }
}

TEST(ChannelModel, SameSeedReplaysTheSameNoise) {
  dataplane::ChannelModelConfig cfg;
  cfg.link_loss = 0.3;
  cfg.link_dup = 0.2;
  cfg.link_jitter_s = 2e-3;
  cfg.seed = 99;
  dataplane::ChannelModel a(cfg);
  dataplane::ChannelModel b(cfg);
  for (int i = 0; i < 512; ++i) {
    const auto da = a.on_link(0, 1);
    const auto db = b.on_link(0, 1);
    ASSERT_EQ(da.copies, db.copies);
    for (int c = 0; c < da.copies; ++c) {
      ASSERT_EQ(da.extra_delay_s[c], db.extra_delay_s[c]);
    }
  }
  EXPECT_EQ(a.counters().link_drops, b.counters().link_drops);
  EXPECT_EQ(a.counters().link_dups, b.counters().link_dups);
}

TEST(ChannelModel, PerLinkOverrideIsUnorderedAndLiftsNoiseless) {
  dataplane::ChannelModel cm;
  cm.set_link_loss(3, 1, 1.0);  // one flaky cable
  EXPECT_EQ(cm.on_link(1, 3).copies, 0);  // either direction
  EXPECT_EQ(cm.on_link(3, 1).copies, 0);
  EXPECT_EQ(cm.on_link(0, 1).copies, 1);  // other links untouched
}

// Zero-rate transmissions leave the RNG stream untouched: interleaving them
// into one of two same-seed models does not shift the other side's draws.
// This is what lets Network send every packet through the model.
TEST(ChannelModel, ZeroRatesDrawNothing) {
  const auto same = [](const dataplane::ChannelModel::Delivery& a,
                       const dataplane::ChannelModel::Delivery& b) {
    return a.copies == b.copies && a.extra_delay_s[0] == b.extra_delay_s[0] &&
           a.extra_delay_s[1] == b.extra_delay_s[1];
  };
  const auto untouched = [](const dataplane::ChannelModel::Delivery& d) {
    return d.copies == 1 && d.extra_delay_s[0] == 0.0;
  };

  // Noisy links, quiet control channel: the control transits draw nothing.
  dataplane::ChannelModelConfig noisy_links;
  noisy_links.link_loss = 0.3;
  noisy_links.link_dup = 0.2;
  noisy_links.link_jitter_s = 2e-3;
  noisy_links.seed = 7;
  dataplane::ChannelModel a(noisy_links);
  dataplane::ChannelModel b(noisy_links);
  for (int i = 0; i < 256; ++i) {
    for (int k = 0; k < i % 3; ++k) ASSERT_TRUE(untouched(a.on_control()));
    ASSERT_TRUE(same(a.on_link(0, 1), b.on_link(0, 1))) << "draw " << i;
  }

  // Noisy control channel, quiet links (also through a zero override).
  dataplane::ChannelModelConfig noisy_control;
  noisy_control.control_loss = 0.3;
  noisy_control.control_dup = 0.2;
  noisy_control.control_jitter_s = 2e-3;
  noisy_control.seed = 7;
  dataplane::ChannelModel c(noisy_control);
  dataplane::ChannelModel d(noisy_control);
  c.set_link_loss(2, 3, 0.0);
  for (int i = 0; i < 256; ++i) {
    for (int k = 0; k < i % 3; ++k) {
      ASSERT_TRUE(untouched(c.on_link(0, 1)));
      ASSERT_TRUE(untouched(c.on_link(3, 2)));
    }
    ASSERT_TRUE(same(c.on_control(), d.on_control())) << "draw " << i;
  }
  EXPECT_EQ(a.counters().control_drops + a.counters().control_dups, 0u);
  EXPECT_EQ(c.counters().link_drops + c.counters().link_dups, 0u);
}

// --- Network-level noise -------------------------------------------------

// A 3-switch line: 0 -- 1 -- 2, one forwarding rule per switch for the
// 001xxxxx flow, delivered to the host port at switch 2 (and, when
// `second_flow`, a 010xxxxx flow entering at switch 1).
flow::RuleSet line_rules(bool second_flow = false) {
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
  if (second_flow) {
    for (flow::SwitchId s = 1; s < 3; ++s) {
      flow::FlowEntry e;
      e.switch_id = s;
      e.priority = 10;
      e.match = ts("010xxxxx");
      e.action = s < 2 ? flow::Action::output(*rs.ports().port_to(s, s + 1))
                       : flow::Action::output(rs.ports().host_port(2));
      rs.add_entry(e);
    }
  }
  return rs;
}

TEST(Network, CertainLinkLossKillsForwarding) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::NetworkConfig nc;
  nc.channel.link_loss = 1.0;
  dataplane::Network net(rs, loop, nc);
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++delivered;
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  net.packet_out(0, pkt);
  loop.run();
  // The PacketOut (control channel, loss 0) lands at switch 0, but the
  // first link hop is lost; nothing reaches the host.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.channel().counters().link_drops, 1u);
}

TEST(Network, DuplicationDeliversTheSamePacketTwice) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::NetworkConfig nc;
  nc.channel.control_dup = 1.0;  // every PacketOut transits twice
  dataplane::Network net(rs, loop, nc);
  int delivered = 0;
  net.set_host_delivery_handler(
      [&](flow::SwitchId, const dataplane::Packet&, sim::SimTime) {
        ++delivered;
      });
  dataplane::Packet pkt;
  pkt.header = ts("00110101");
  net.packet_out(0, pkt);
  loop.run();
  EXPECT_EQ(delivered, 2);
}

// --- Composed fault modifiers (intermittent × targeting on one entry) ----

TEST(Network, IntermittentTargetingFaultNeedsBothConditions) {
  const flow::RuleSet rs = line_rules();
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  // Drop only within the 0011xx11 victim cube, and only during the active
  // half of each 1-second period.
  const auto f = dataplane::FaultSpec::Drop()
                     .intermittent(1.0, 0.5, 0.0)
                     .targeting(ts("0011xx11"));
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
  // Active window + in-cube: dropped.
  loop.schedule_at(0.2, [&] { net.packet_out(0, victim); });
  // Active window + out-of-cube: passes.
  loop.schedule_at(0.2, [&] { net.packet_out(0, bystander); });
  // Inactive window + in-cube: passes.
  loop.schedule_at(0.7, [&] { net.packet_out(0, victim); });
  loop.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.counters().faults_applied, 1u);
}

// --- Localizer loss tolerance --------------------------------------------

struct Fixture {
  flow::RuleSet rules;
  std::unique_ptr<core::RuleGraph> graph;
  std::unique_ptr<core::AnalysisSnapshot> snap;
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;

  explicit Fixture(const flow::RuleSet& rs,
                   dataplane::NetworkConfig nc = {})
      : rules(rs) {
    graph = std::make_unique<core::RuleGraph>(rules);
    snap = std::make_unique<core::AnalysisSnapshot>(*graph);
    net = std::make_unique<dataplane::Network>(rules, loop, nc);
    ctrl = std::make_unique<controller::Controller>(rules, *net);
  }
};

flow::RuleSet synthesized_rules() {
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = 5;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 700;
  sc.seed = 6;
  return flow::synthesize_ruleset(g, sc);
}

TEST(LossTolerance, RetriesDisabledChargeLossAsSuspicion) {
  // A clean network (no rule faults) over a lossy channel: without
  // confirmation retries, random probe loss reads as path failures, so the
  // run never quiesces early and keeps accumulating suspicion.
  dataplane::NetworkConfig nc;
  nc.channel.link_loss = 0.10;
  nc.channel.control_loss = 0.05;
  Fixture fx(synthesized_rules(), nc);
  core::LocalizerConfig lc;
  lc.max_rounds = 8;
  const auto rep =
      core::FaultLocalizer(*fx.snap, *fx.ctrl, fx.loop, lc).run();
  std::size_t failures = 0;
  for (const auto& rec : rep.round_log) failures += rec.failures;
  EXPECT_GT(failures, 0u) << "10% loss must produce spurious path failures";
  EXPECT_EQ(rep.retries_sent, 0u);
  EXPECT_EQ(rep.rounds, lc.max_rounds) << "loss keeps the run from quiescing";
}

TEST(LossTolerance, RetriesAbsorbChannelLossWithoutFlags) {
  // Same lossy channel, retries on: every missing probe is confirmed as
  // channel loss (it eventually returns on a re-send), no switch is blamed,
  // and the run quiesces.
  dataplane::NetworkConfig nc;
  nc.channel.link_loss = 0.10;
  nc.channel.control_loss = 0.05;
  Fixture fx(synthesized_rules(), nc);
  core::LocalizerConfig lc;
  lc.max_rounds = 32;
  lc.confirm_retries = 4;
  lc.adaptive_timeout = true;
  const auto rep =
      core::FaultLocalizer(*fx.snap, *fx.ctrl, fx.loop, lc).run();
  EXPECT_TRUE(rep.flagged_switches.empty())
      << "channel loss must not implicate any switch";
  EXPECT_GT(rep.retries_sent, 0u);
  EXPECT_GT(rep.retry_recoveries, 0u);
}

TEST(LossTolerance, RetriesStillDetectRealFaultsUnderLoss) {
  // Loss tolerance must not turn into fault blindness: a persistent drop
  // fault fails every retry too, so it is still localized exactly.
  dataplane::NetworkConfig nc;
  nc.channel.link_loss = 0.02;
  Fixture fx(synthesized_rules(), nc);
  util::Rng rng(13);
  const auto ids = core::choose_faulty_entries(*fx.graph, 1, rng);
  fx.net->faults().add_fault(ids[0], dataplane::FaultSpec::Drop());
  core::LocalizerConfig lc;
  lc.max_rounds = 48;
  lc.confirm_retries = 3;
  lc.adaptive_timeout = true;
  const auto rep =
      core::FaultLocalizer(*fx.snap, *fx.ctrl, fx.loop, lc).run();
  ASSERT_EQ(rep.flagged_switches.size(), 1u);
  EXPECT_EQ(rep.flagged_switches[0], fx.rules.entry(ids[0]).switch_id);
}

TEST(LossTolerance, AdaptiveTimeoutToleratesDetourLatency) {
  // A colluding detour adds detour_extra_latency_s. With the fixed grace
  // (kDefaultRoundGraceS, 0.1 s: it covers the normal ~4.2 ms RTT but not
  // a return delayed by 0.15 s more) the late (but correct) return is
  // missed every round and the colluder gets flagged; with retries +
  // adaptive timeouts the late return is observed, restoring the
  // deterministic variant's detour blind spot (Table I) — the probe *did*
  // come back intact.
  const flow::RuleSet rs = line_rules(/*second_flow=*/true);
  const auto detour = dataplane::FaultSpec::Detour(/*partner=*/2,
                                                   /*extra_latency_s=*/0.15);
  for (const bool tolerant : {false, true}) {
    Fixture fx(rs);
    fx.net->faults().add_fault(0, detour);
    core::LocalizerConfig lc;
    lc.max_rounds = 64;
      if (tolerant) {
      lc.confirm_retries = 2;
      lc.adaptive_timeout = true;
    }
    const auto rep =
        core::FaultLocalizer(*fx.snap, *fx.ctrl, fx.loop, lc).run();
    if (tolerant) {
      EXPECT_TRUE(rep.flagged_switches.empty())
          << "adaptive timeouts must absorb the detour's extra latency";
    } else {
      ASSERT_EQ(rep.flagged_switches.size(), 1u)
          << "the fixed grace must misread the late return as a failure";
      EXPECT_EQ(rep.flagged_switches[0], 0);
    }
  }
}

}  // namespace
}  // namespace sdnprobe

// Behavioral tests for Algorithm 2 (FaultLocalizer) and the scenario
// helpers: exactness on persistent faults, intermittent and targeting fault
// handling, detour blind spots, suspicion tracking, and accuracy scoring.
#include <gtest/gtest.h>

#include "baselines/per_rule.h"
#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"

namespace sdnprobe::core {
namespace {

struct Fixture {
  flow::RuleSet rules;
  std::unique_ptr<RuleGraph> graph;
  std::unique_ptr<AnalysisSnapshot> snap;
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;

  explicit Fixture(std::uint64_t seed = 4, long entries = 1000) {
    topo::GeneratorConfig tc;
    tc.node_count = 14;
    tc.link_count = 24;
    tc.seed = seed;
    const topo::Graph g = topo::make_rocketfuel_like(tc);
    flow::SynthesizerConfig sc;
    sc.target_entry_count = entries;
    sc.seed = seed + 1;
    rules = flow::synthesize_ruleset(g, sc);
    graph = std::make_unique<RuleGraph>(rules);
    snap = std::make_unique<AnalysisSnapshot>(*graph);
    net = std::make_unique<dataplane::Network>(rules, loop);
    ctrl = std::make_unique<controller::Controller>(rules, *net);
  }
};

TEST(Localizer, ExactOnModifyFault) {
  Fixture fx;
  util::Rng rng(3);
  const auto ids = choose_faulty_entries(*fx.graph, 1, rng);
  FaultMix mix;
  mix.drop = false;
  mix.misdirect = false;  // modify only
  fx.net->faults().add_fault(ids[0], make_fault(*fx.graph, ids[0], mix, rng));
  FaultLocalizer loc(*fx.snap, *fx.ctrl, fx.loop);
  const auto rep = loc.run();
  ASSERT_EQ(rep.flagged_switches.size(), 1u);
  EXPECT_EQ(rep.flagged_switches[0], fx.rules.entry(ids[0]).switch_id);
}

TEST(Localizer, ExactOnMisdirectFaultChainRuleset) {
  // Chain-style ruleset: misdirected packets cannot be rescued by
  // aggregates, so misdirection is always caught (Fig 9(a) setting).
  topo::GeneratorConfig tc;
  tc.node_count = 14;
  tc.link_count = 24;
  tc.seed = 6;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 800;
  sc.aggregates = false;
  sc.short_prefix_fraction = 0.0;
  sc.seed = 7;
  const flow::RuleSet rules = flow::synthesize_ruleset(g, sc);
  RuleGraph graph(rules);
  AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);
  util::Rng rng(5);
  const auto ids = choose_faulty_entries(graph, 2, rng);
  FaultMix mix;
  mix.drop = false;
  mix.modify = false;  // misdirect only
  for (const auto id : ids) {
    net.faults().add_fault(id, make_fault(graph, id, mix, rng));
  }
  FaultLocalizer loc(snap, ctrl, loop);
  const auto rep = loc.run();
  const auto score = score_detection(rep.flagged_switches,
                                     net.faulty_switches(),
                                     rules.switch_count());
  EXPECT_EQ(score.false_negative, 0u);
  EXPECT_EQ(score.false_positive, 0u);
}

TEST(Localizer, IntermittentFaultCaughtWithSustainedMonitoring) {
  Fixture fx(9, 900);
  util::Rng rng(11);
  FaultMix mix;
  mix.misdirect = mix.modify = false;
  mix.intermittent_fraction = 1.0;
  plan_basic_faults(*fx.graph, 2, mix, rng, &fx.net->faults());
  const auto truth = fx.net->faulty_switches();
  LocalizerConfig lc;
  lc.max_rounds = 300;
  lc.quiet_full_rounds_to_stop = 40;
  FaultLocalizer loc(*fx.snap, *fx.ctrl, fx.loop, lc);
  const auto rep = loc.run([&truth](const DetectionReport& r) {
    for (const auto s : truth) {
      if (!r.flagged(s)) return false;
    }
    return true;
  });
  const auto score = score_detection(rep.flagged_switches, truth,
                                     fx.rules.switch_count());
  EXPECT_EQ(score.false_negative, 0u);
  EXPECT_EQ(score.false_positive, 0u)
      << "suspicion-based flagging must not blame benign co-path rules";
}

TEST(Localizer, SuspicionLevelsExposeTheCulprit) {
  Fixture fx(12, 900);
  util::Rng rng(2);
  const auto ids = choose_faulty_entries(*fx.graph, 1, rng);
  fx.net->faults().add_fault(ids[0], dataplane::FaultSpec::Drop());
  FaultLocalizer loc(*fx.snap, *fx.ctrl, fx.loop);
  loc.run();
  const auto& suspicion = loc.suspicion_levels();
  int best = -1;
  flow::EntryId best_entry = -1;
  for (const auto& [e, s] : suspicion) {
    if (s > best) {
      best = s;
      best_entry = e;
    }
  }
  EXPECT_EQ(best_entry, ids[0]);
}

TEST(Localizer, DeterministicMissesDetourRandomizedCatches) {
  for (const bool randomized : {false, true}) {
    Fixture fx(4, 1200);
    util::Rng rng(99);
    const auto planted =
        plan_detour_faults(*fx.graph, 3, /*min_skip=*/2, rng,
                           &fx.net->faults());
    ASSERT_FALSE(planted.empty());
    const auto truth = fx.net->faulty_switches();
    LocalizerConfig lc;
    lc.common.randomized = randomized;
    lc.max_rounds = randomized ? 150 : 10;
    lc.quiet_full_rounds_to_stop = randomized ? 150 : 1;
    FaultLocalizer loc(*fx.snap, *fx.ctrl, fx.loop, lc);
    const auto rep = loc.run([&truth](const DetectionReport& r) {
      for (const auto s : truth) {
        if (!r.flagged(s)) return false;
      }
      return true;
    });
    const auto score = score_detection(rep.flagged_switches, truth,
                                       fx.rules.switch_count());
    if (randomized) {
      EXPECT_EQ(score.false_negative, 0u)
          << "randomized tested paths must expose every colluding pair";
    } else {
      EXPECT_GT(score.false_negative, 0u)
          << "fixed tested paths must have a detour blind spot (Table I)";
    }
    EXPECT_EQ(score.false_positive, 0u);
  }
}

TEST(Localizer, ReportBookkeepingConsistent) {
  Fixture fx(5, 600);
  FaultLocalizer loc(*fx.snap, *fx.ctrl, fx.loop);
  const auto rep = loc.run();
  EXPECT_EQ(rep.rounds, static_cast<int>(rep.round_log.size()));
  EXPECT_TRUE(rep.flagged_switches.empty());
  EXPECT_GT(rep.total_time_s, 0.0);
  double prev_end = 0.0;
  for (const auto& r : rep.round_log) {
    EXPECT_GE(r.start_s, prev_end);
    EXPECT_GE(r.end_s, r.start_s);
    prev_end = r.end_s;
  }
}

// --- Evidence on a hand-built network ------------------------------------
//
// A line 0 -- 1 -- 2 -- 3 with a spur 1 -- 4, one rule per switch (entry id
// = switch id). Rules 0-2 forward the flow towards switch 3, rule 3 delivers
// it to switch 3's host port, and rule 4 punts it to the controller. Rule 0
// sets the low bit, so every header past switch 0 ends in 1; rules 1-3 also
// match headers with bit 4 set, which rule 0 never emits. The cover is
// the path 0-1-2-3 plus the singleton 4; each case plants one fault on
// rule 1 and checks the evidence recorded for the full path.
struct LineWithSpur {
  flow::RuleSet rules;
  std::unique_ptr<RuleGraph> graph;
  std::unique_ptr<AnalysisSnapshot> snap;
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;

  static hsa::TernaryString ts(const char* s) {
    return *hsa::TernaryString::parse(s);
  }

  static flow::RuleSet make_rules() {
    topo::Graph g(5);
    for (flow::SwitchId s = 0; s < 3; ++s) g.add_edge(s, s + 1, 1e-3);
    g.add_edge(1, 4, 1e-3);
    flow::RuleSet rs(g, 8);
    for (flow::SwitchId s = 0; s < 5; ++s) {
      flow::FlowEntry e;
      e.switch_id = s;
      e.priority = 10;
      e.match = ts(s == 0 || s == 4 ? "0010xxxx" : "001xxxxx");
      if (s == 0) e.set_field = ts("xxxxxxx1");
      if (s < 3) {
        e.action = flow::Action::output(*rs.ports().port_to(s, s + 1));
      } else if (s == 3) {
        e.action = flow::Action::output(rs.ports().host_port(3));
      } else {
        e.action = flow::Action::to_controller();
      }
      rs.add_entry(e);
    }
    return rs;
  }

  explicit LineWithSpur(dataplane::FaultSpec fault_on_rule_1)
      : rules(make_rules()) {
    graph = std::make_unique<RuleGraph>(rules);
    snap = std::make_unique<AnalysisSnapshot>(*graph);
    net = std::make_unique<dataplane::Network>(rules, loop);
    ctrl = std::make_unique<controller::Controller>(rules, *net);
    net->faults().add_fault(1, std::move(fault_on_rule_1));
  }

  // Runs the localizer and returns the evidence for the full path 0-1-2-3.
  ProbeEvidence full_path_evidence() {
    FaultLocalizer loc(*snap, *ctrl, loop);
    const DetectionReport rep = loc.run();
    EXPECT_EQ(rep.flagged_switches, std::vector<flow::SwitchId>{1});
    for (const ProbeEvidence& ev : rep.evidence) {
      if (ev.expected_path == std::vector<flow::EntryId>{0, 1, 2, 3}) {
        return ev;
      }
    }
    ADD_FAILURE() << "no evidence for the full path";
    return ProbeEvidence();
  }
};

TEST(Evidence, MisdirectToHostPortIsMisrouted) {
  LineWithSpur fx(dataplane::FaultSpec::Misdirect(
      LineWithSpur::make_rules().ports().host_port(1)));
  const ProbeEvidence ev = fx.full_path_evidence();
  EXPECT_EQ(ev.deviation, DeviationKind::kMisrouted);
  EXPECT_EQ(ev.observed_switch, 1);
  // Intact: the header as rule 0 left it.
  EXPECT_TRUE(ev.observed_header.is_concrete());
  EXPECT_TRUE(LineWithSpur::ts("0010xxx1").covers(ev.observed_header));
}

TEST(Evidence, ModifyFaultDeliversTheRewrittenHeader) {
  LineWithSpur fx(dataplane::FaultSpec::Modify(LineWithSpur::ts("xxx1xxxx")));
  const ProbeEvidence ev = fx.full_path_evidence();
  EXPECT_EQ(ev.deviation, DeviationKind::kModifiedDelivery);
  // The rewritten header misses the test point and leaves at switch 3.
  EXPECT_EQ(ev.observed_switch, 3);
  EXPECT_TRUE(ev.observed_header.is_concrete());
  EXPECT_TRUE(LineWithSpur::ts("0011xxx1").covers(ev.observed_header));
}

TEST(Evidence, MisdirectIntoAPuntingRuleReturnsFromTheWrongSwitch) {
  LineWithSpur fx(dataplane::FaultSpec::Misdirect(
      *LineWithSpur::make_rules().ports().port_to(1, 4)));
  const ProbeEvidence ev = fx.full_path_evidence();
  EXPECT_EQ(ev.deviation, DeviationKind::kModifiedReturn);
  EXPECT_EQ(ev.observed_switch, 4);
  EXPECT_TRUE(ev.observed_header.is_concrete());
  EXPECT_TRUE(LineWithSpur::ts("0010xxx1").covers(ev.observed_header));
}

TEST(DetectionReport, FlaggedTracksReassignedSwitchSet) {
  // Reassigning a same-size set must not leave flagged() answering for the
  // previous contents.
  DetectionReport rep;
  rep.flagged_switches = {1};
  EXPECT_TRUE(rep.flagged(1));
  EXPECT_FALSE(rep.flagged(2));
  rep.flagged_switches = {2};
  EXPECT_TRUE(rep.flagged(2));
  EXPECT_FALSE(rep.flagged(1));
}

TEST(Scenario, ScoreDetectionCounts) {
  const auto c = score_detection(/*flagged=*/{1, 2, 3},
                                 /*ground_truth=*/{2, 4}, /*switches=*/6);
  EXPECT_EQ(c.true_positive, 1u);   // 2
  EXPECT_EQ(c.false_positive, 2u);  // 1, 3
  EXPECT_EQ(c.false_negative, 1u);  // 4
  EXPECT_EQ(c.true_negative, 2u);   // 0, 5
  EXPECT_DOUBLE_EQ(c.false_positive_rate(), 0.5);
  EXPECT_DOUBLE_EQ(c.false_negative_rate(), 0.5);
}

TEST(Scenario, SwitchFractionSelectionLeavesCleanSwitches) {
  Fixture fx(8, 900);
  util::Rng rng(13);
  const auto entries = choose_entries_on_switch_fraction(
      *fx.graph, 0.3, /*entries_per_switch=*/2, rng);
  std::set<flow::SwitchId> hit;
  for (const auto e : entries) hit.insert(fx.rules.entry(e).switch_id);
  EXPECT_GT(hit.size(), 0u);
  EXPECT_LT(static_cast<int>(hit.size()), fx.rules.switch_count())
      << "a fraction sweep must leave clean switches for FPR to be defined";
}

TEST(Scenario, TrafficModelCubesIntersectFlowSpaces) {
  Fixture fx(3, 800);
  util::Rng rng(21);
  const TrafficModel model = make_traffic_model(*fx.graph, 4, rng);
  ASSERT_EQ(model.popular_cubes.size(), 4u);
  // Every popular cube must intersect most rules' input spaces (it only
  // pins host-like bits).
  int intersecting = 0;
  const int n = std::min(fx.graph->vertex_count(), 100);
  for (VertexId v = 0; v < n; ++v) {
    if (!fx.graph->in_space(v).intersect(model.popular_cubes[0]).is_empty()) {
      ++intersecting;
    }
  }
  EXPECT_GT(intersecting, n * 9 / 10);
}

TEST(PerRuleBaseline, CleanNetworkFlagsNothing) {
  Fixture fx(2, 500);
  baselines::PerRuleTest prt(*fx.snap, *fx.ctrl, fx.loop);
  const auto rep = prt.run();
  EXPECT_TRUE(rep.flagged_switches.empty());
  EXPECT_EQ(rep.probes_sent, prt.probe_count());
}

}  // namespace
}  // namespace sdnprobe::core

// End-to-end integration: synthesize a topology + ruleset, build the rule
// graph, solve MLPC, generate probes, run them through the simulated data
// plane, and localize injected faults with SDNProbe and both baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/atpg.h"
#include "baselines/per_rule.h"
#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"

namespace sdnprobe {
namespace {

flow::RuleSet make_test_ruleset(std::uint64_t seed = 3,
                                long entries = 600,
                                bool aggregates = false) {
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = seed;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = entries;
  sc.aggregates = aggregates;
  sc.set_field_fraction = 0.05;
  sc.seed = seed + 1;
  return flow::synthesize_ruleset(g, sc);
}

TEST(IntegrationSmoke, RuleGraphIsAcyclicAndCovers) {
  const flow::RuleSet rs = make_test_ruleset();
  core::RuleGraph graph(rs);
  EXPECT_GT(graph.vertex_count(), 0);
  EXPECT_TRUE(graph.find_cycle().empty());
  // Vertices + dead entries account for every policy entry.
  EXPECT_EQ(static_cast<std::size_t>(graph.vertex_count()) +
                graph.dead_entries().size(),
            rs.entry_count());
}

TEST(IntegrationSmoke, MlpcCoversAllVerticesWithLegalPaths) {
  const flow::RuleSet rs = make_test_ruleset();
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  const core::Cover cover = core::MlpcSolver().solve(snap);
  // Every vertex appears on some path.
  std::set<core::VertexId> covered;
  for (const auto& p : cover.paths) {
    EXPECT_TRUE(graph.is_legal_path(p.vertices));
    covered.insert(p.vertices.begin(), p.vertices.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), graph.vertex_count());
  // Fewer probes than rules (stitching must achieve something).
  EXPECT_LT(cover.path_count(),
            static_cast<std::size_t>(graph.vertex_count()));
}

TEST(IntegrationSmoke, CleanNetworkHasNoFailuresAndNoFlags) {
  const flow::RuleSet rs = make_test_ruleset();
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);
  core::LocalizerConfig cfg;
  cfg.max_rounds = 4;
  core::FaultLocalizer loc(snap, ctrl, loop, cfg);
  const core::DetectionReport report = loc.run();
  EXPECT_TRUE(report.flagged_switches.empty());
  EXPECT_GE(report.rounds, 1);
  EXPECT_GT(report.probes_sent, 0u);
}

TEST(IntegrationSmoke, LocalizesSingleDropFault) {
  const flow::RuleSet rs = make_test_ruleset();
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  util::Rng rng(11);
  const auto faulty = core::choose_faulty_entries(graph, 1, rng);
  ASSERT_EQ(faulty.size(), 1u);
  net.faults().add_fault(faulty[0], dataplane::FaultSpec::Drop());
  const flow::SwitchId faulty_switch = rs.entry(faulty[0]).switch_id;

  core::LocalizerConfig cfg;
  cfg.max_rounds = 32;
  core::FaultLocalizer loc(snap, ctrl, loop, cfg);
  const core::DetectionReport report = loc.run();
  ASSERT_EQ(report.flagged_switches.size(), 1u) << "expected exact detection";
  EXPECT_EQ(report.flagged_switches[0], faulty_switch);
  EXPECT_GT(report.detection_time_s, 0.0);
}

TEST(IntegrationSmoke, LocalizesMultipleBasicFaultsExactly) {
  const flow::RuleSet rs = make_test_ruleset(5, 800);
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  util::Rng rng(23);
  core::FaultMix mix;  // drop/misdirect/modify, persistent
  const auto faulty =
      core::plan_basic_faults(graph, 5, mix, rng, &net.faults());
  const auto truth = net.faulty_switches();

  core::LocalizerConfig cfg;
  cfg.max_rounds = 48;
  core::FaultLocalizer loc(snap, ctrl, loop, cfg);
  const core::DetectionReport report = loc.run();
  const auto score =
      core::score_detection(report.flagged_switches, truth, rs.switch_count());
  EXPECT_EQ(score.false_negative, 0u)
      << "SDNProbe must detect all basic persistent faults";
  EXPECT_EQ(score.false_positive, 0u)
      << "SDNProbe must not blame benign switches for basic faults";
}

TEST(IntegrationSmoke, PerRuleBaselineDetectsButOverBlames) {
  const flow::RuleSet rs = make_test_ruleset(7, 700);
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  util::Rng rng(31);
  core::FaultMix mix;
  mix.misdirect = false;  // keep it to stealth-free faults for determinism
  mix.modify = false;
  core::plan_basic_faults(graph, 4, mix, rng, &net.faults());
  const auto truth = net.faulty_switches();

  baselines::PerRuleTest prt(snap, ctrl, loop);
  const core::DetectionReport report = prt.run();
  const auto score =
      core::score_detection(report.flagged_switches, truth, rs.switch_count());
  EXPECT_EQ(score.false_negative, 0u);
  // The three-switch blame set must overreach with several faults present.
  EXPECT_GT(score.false_positive, 0u);
}

TEST(IntegrationSmoke, AtpgDetectsBasicFaults) {
  const flow::RuleSet rs = make_test_ruleset(9, 700);
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  util::Rng rng(37);
  core::FaultMix mix;
  mix.misdirect = false;
  mix.modify = false;
  // Intersection-based localization needs enough failing paths to form
  // intersections at the faulty switches; the paper's Fig. 9 sweeps 10%+ of
  // rules faulty, which is the density we reproduce here.
  const std::size_t count = static_cast<std::size_t>(graph.vertex_count()) / 10;
  core::plan_basic_faults(graph, count, mix, rng, &net.faults());
  const auto truth = net.faulty_switches();

  baselines::Atpg atpg(snap, ctrl, loop);
  EXPECT_GT(atpg.probe_count(), 0u);
  const core::DetectionReport report = atpg.run();
  const auto score =
      core::score_detection(report.flagged_switches, truth, rs.switch_count());
  EXPECT_EQ(score.false_negative, 0u);
}

TEST(IntegrationSmoke, ProbeCountOrdering) {
  // Paper Fig. 8(a): SDNProbe <= ATPG <= Per-rule.
  const flow::RuleSet rs = make_test_ruleset(13, 900);
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::Network net(rs, loop);
  controller::Controller ctrl(rs, net);

  core::LocalizerConfig cfg;
  core::FaultLocalizer loc(snap, ctrl, loop, cfg);
  const std::size_t sdnprobe_count = loc.initial_probe_count();

  baselines::Atpg atpg(snap, ctrl, loop);
  const std::size_t atpg_count = atpg.probe_count();

  baselines::PerRuleTest prt(snap, ctrl, loop);
  const std::size_t per_rule_count = prt.probe_count();

  EXPECT_LE(sdnprobe_count, atpg_count);
  EXPECT_LE(atpg_count, per_rule_count);
  EXPECT_LT(sdnprobe_count, per_rule_count);
}

}  // namespace
}  // namespace sdnprobe

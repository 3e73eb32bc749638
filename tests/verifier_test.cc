// Tests for analysis::Verifier and the invariant DSL: each invariant kind's
// violation is detected with the right check id and evidence on hand-built
// networks, satisfied invariants stay silent, slices restrict what a walk
// may inject, budget exhaustion truncates deterministically — and, the
// property the whole design rests on, apply_delta() after a churn batch is
// bit-identical to a from-scratch verify over the same snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/invariant.h"
#include "analysis/verifier.h"
#include "core/analysis_snapshot.h"
#include "core/rule_graph.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "topo/graph.h"
#include "util/rng.h"

namespace sdnprobe::analysis {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

// A small network under test; width-8 headers.
struct Net {
  explicit Net(topo::Graph g) : rules(std::move(g), 8) {}

  // 0 - 1 - 2 - ... - (n-1)
  static topo::Graph line(int n) {
    topo::Graph g(n);
    for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
    return g;
  }

  //     1
  //   /   \   (diamond)
  // 0       3
  //   \   /
  //     2
  static topo::Graph diamond() {
    topo::Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    return g;
  }

  flow::EntryId add(flow::SwitchId sw, flow::TableId table, int priority,
                    hsa::TernaryString match, flow::Action action,
                    hsa::TernaryString set_field = hsa::TernaryString()) {
    flow::FlowEntry e;
    e.switch_id = sw;
    e.table_id = table;
    e.priority = priority;
    e.match = std::move(match);
    e.set_field = std::move(set_field);
    e.action = action;
    return rules.add_entry(std::move(e));
  }

  flow::PortId port(flow::SwitchId from, flow::SwitchId to) const {
    return *rules.ports().port_to(from, to);
  }
  flow::PortId host(flow::SwitchId sw) const {
    return rules.ports().host_port(sw);
  }

  core::AnalysisSnapshot snap() const {
    return core::AnalysisSnapshot::build(rules);
  }

  flow::RuleSet rules;
};

// Forward every 0xxxxxxx header down the line and into the last host.
Net forwarding_line(int n) {
  Net net(Net::line(n));
  for (int sw = 0; sw + 1 < n; ++sw) {
    net.add(sw, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(sw, sw + 1)));
  }
  net.add(n - 1, 0, 10, ts("0xxxxxxx"),
          flow::Action::output(net.host(n - 1)));
  return net;
}

TEST(Verifier, CleanChainSatisfiesBuiltinsAndReach) {
  Net net = forwarding_line(3);
  InvariantSet invs = InvariantSet::builtin();
  invs.add(Invariant::reach(0, 2));
  Verifier verifier(invs);
  const core::AnalysisSnapshot snap = net.snap();
  const VerifyReport report = verifier.verify(snap);
  EXPECT_EQ(report.size(), 0u) << report.to_string();
  EXPECT_EQ(report.stats().classes_total, 3u);
  EXPECT_EQ(report.stats().classes_verified, 3u);
  EXPECT_EQ(report.stats().classes_reused, 0u);
  EXPECT_TRUE(report.is_sorted());
}

TEST(Verifier, UnreachablePairIsReported) {
  Net net = forwarding_line(3);
  InvariantSet invs;
  invs.add(Invariant::reach(2, 0));  // no reverse path exists
  const VerifyReport report = Verifier(invs).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kUnreachablePair), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kUnreachablePair)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.switch_id, 2);
  ASSERT_FALSE(d->payload.empty());
  EXPECT_EQ(d->payload[0].first, "invariant");
  EXPECT_EQ(d->payload[0].second, "reach 2 0");
}

TEST(Verifier, ForbiddenDeliveryCarriesPathAndCounterexample) {
  Net net = forwarding_line(3);
  InvariantSet invs;
  invs.add(Invariant::no_reach(0, 2));
  const VerifyReport report = Verifier(invs).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kForbiddenPath), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kForbiddenPath)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.switch_id, 2);  // points at the arrival entry
  bool saw_path = false, saw_counterexample = false, saw_header = false;
  for (const auto& [key, value] : d->payload) {
    saw_path |= key == "path-entries" && !value.empty();
    saw_counterexample |= key == "counterexample" && !value.empty();
    saw_header |= key == "header" && !value.empty();
  }
  EXPECT_TRUE(saw_path);
  EXPECT_TRUE(saw_counterexample);
  EXPECT_TRUE(saw_header);
}

TEST(Verifier, SliceRestrictsWhatAWalkMayInject) {
  Net net = forwarding_line(3);
  // The chain only forwards 0xxxxxxx, so forbidding 1xxxxxxx deliveries
  // holds vacuously while forbidding 0xxxxxxx deliveries is violated.
  InvariantSet holds;
  holds.add(Invariant::no_reach(0, 2, ts("1xxxxxxx")));
  EXPECT_EQ(Verifier(holds).verify(net.snap()).size(), 0u);

  InvariantSet violated;
  violated.add(Invariant::no_reach(0, 2, ts("0xxxxxxx")));
  const VerifyReport report = Verifier(violated).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kForbiddenPath), 1u) << report.to_string();
}

TEST(Verifier, WaypointBypassIsReported) {
  Net net(Net::diamond());
  // 00xxxxxx travels 0→1→3, 01xxxxxx travels 0→2→3.
  net.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(net.port(0, 1)));
  net.add(0, 0, 10, ts("01xxxxxx"), flow::Action::output(net.port(0, 2)));
  net.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(1, 3)));
  net.add(2, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(2, 3)));
  net.add(3, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.host(3)));

  // Unsliced: the 00xxxxxx class reaches 3 through 1, bypassing waypoint 2.
  InvariantSet bypassed;
  bypassed.add(Invariant::waypoint(0, 2, 3));
  const VerifyReport report = Verifier(bypassed).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kWaypointBypass), 1u) << report.to_string();
  EXPECT_EQ(report.by_check(CheckId::kWaypointBypass)[0]->location.switch_id,
            3);

  // Sliced to the branch that does traverse the waypoint: satisfied.
  InvariantSet sliced;
  sliced.add(Invariant::waypoint(0, 2, 3, ts("01xxxxxx")));
  EXPECT_EQ(Verifier(sliced).verify(net.snap()).size(), 0u);
}

TEST(Verifier, ForwardingLoopIsReportedWithCycleEvidence) {
  Net net(Net::line(2));
  const auto e0 =
      net.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(0, 1)));
  const auto e1 =
      net.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(1, 0)));
  const VerifyReport report =
      Verifier(InvariantSet::builtin()).verify(net.snap());
  ASSERT_GE(report.count(CheckId::kForwardingLoop), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kForwardingLoop)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  bool saw_cycle = false;
  for (const auto& [key, value] : d->payload) {
    if (key != "cycle-entries") continue;
    saw_cycle = true;
    // Both entries participate in the reported cycle.
    EXPECT_NE(value.find(std::to_string(e0)), std::string::npos) << value;
    EXPECT_NE(value.find(std::to_string(e1)), std::string::npos) << value;
  }
  EXPECT_TRUE(saw_cycle);
}

TEST(Verifier, TableMissResidualIsABlackhole) {
  Net net(Net::line(2));
  const auto emitter =
      net.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(0, 1)));
  // Switch 1 only absorbs 00xxxxxx: the 01xxxxxx remainder is silently lost.
  net.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(net.host(1)));
  const VerifyReport report =
      Verifier(InvariantSet::builtin()).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kBlackhole), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kBlackhole)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.entry_id, emitter);
  EXPECT_NE(d->message.find("table-miss"), std::string::npos) << d->message;
  bool saw_residual = false;
  for (const auto& [key, value] : d->payload) {
    if (key == "space") {
      saw_residual = true;
      EXPECT_EQ(value, "01xxxxxx");
    }
  }
  EXPECT_TRUE(saw_residual);
}

TEST(Verifier, LinklessOutputPortBlackholesEverything) {
  Net net(Net::line(2));
  const auto bad =
      net.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(flow::PortId{5}));
  net.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.host(1)));
  const VerifyReport report =
      Verifier(InvariantSet::builtin()).verify(net.snap());
  ASSERT_EQ(report.count(CheckId::kBlackhole), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kBlackhole)[0];
  EXPECT_EQ(d->location.entry_id, bad);
  EXPECT_NE(d->message.find("no link"), std::string::npos) << d->message;
}

TEST(Verifier, IntentionalTerminalsAreNotBlackholes) {
  Net net(Net::line(2));
  net.add(0, 0, 30, ts("00xxxxxx"), flow::Action::drop());
  net.add(0, 0, 20, ts("01xxxxxx"), flow::Action::to_controller());
  net.add(0, 0, 10, ts("1xxxxxxx"), flow::Action::output(net.host(0)));
  net.add(1, 0, 10, ts("xxxxxxxx"), flow::Action::output(net.host(1)));
  const VerifyReport report =
      Verifier(InvariantSet::builtin()).verify(net.snap());
  EXPECT_EQ(report.size(), 0u) << report.to_string();
}

TEST(Verifier, InvalidInvariantsAreFlaggedNotCrashed) {
  Net net = forwarding_line(2);
  InvariantSet invs;
  invs.add(Invariant::reach(0, 99));              // unknown switch
  invs.add(Invariant::no_reach(0, 1, ts("xx")));  // wrong slice width
  const VerifyReport report = Verifier(invs).verify(net.snap());
  EXPECT_EQ(report.count(CheckId::kInvalidInvariant), 2u)
      << report.to_string();
  // Invalid reach invariants must not double-report as unreachable pairs.
  EXPECT_EQ(report.count(CheckId::kUnreachablePair), 0u);
}

TEST(Verifier, BudgetExhaustionTruncatesDeterministically) {
  Net net(Net::line(2));
  net.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(0, 1)));
  net.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(net.port(1, 0)));
  VerifierConfig config;
  config.class_step_budget = 1;
  const core::AnalysisSnapshot snap = net.snap();
  const VerifyReport a = Verifier(InvariantSet::builtin(), config).verify(snap);
  const VerifyReport b = Verifier(InvariantSet::builtin(), config).verify(snap);
  EXPECT_GT(a.stats().truncated_classes, 0u);
  EXPECT_EQ(a.count(CheckId::kVerifyTruncated), 1u) << a.to_string();
  EXPECT_EQ(a.by_check(CheckId::kVerifyTruncated)[0]->severity,
            Severity::kInfo);
  EXPECT_EQ(a.to_string(), b.to_string());
}

// --- Invariant DSL. ---

TEST(InvariantSet, SpecFormatRoundTrips) {
  InvariantSet invs;
  invs.add(Invariant::loop_free());
  invs.add(Invariant::blackhole_free());
  invs.add(Invariant::reach(0, 3));
  invs.add(Invariant::no_reach(1, 2, ts("10xxxxxx")));
  invs.add(Invariant::waypoint(0, 2, 3, ts("01xxxxxx")));
  const std::string spec = invs.to_string();
  std::string error;
  const auto parsed = InvariantSet::parse(spec, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_string(), spec);
  EXPECT_EQ(parsed->size(), invs.size());
}

TEST(InvariantSet, ParserSkipsCommentsAndBlankLines) {
  const auto parsed = InvariantSet::parse(
      "# the default contract\n"
      "loop-free\n"
      "\n"
      "reach 0 3   # with trailing comment\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->invariants()[1].to_string(), "reach 0 3");
}

TEST(InvariantSet, ParserRejectsMalformedLinesWithLineNumbers) {
  const char* bad_specs[] = {
      "teleport 0 1",            // unknown verb
      "reach 0",                 // missing destination
      "reach zero one",          // non-numeric switch
      "reach -1 2",              // negative switch
      "waypoint 0 1",            // waypoint needs three switches
      "loop-free 0xxxxxxx",      // global invariants take no slice
      "reach 0 1 0zxxxxxx",      // bad slice character
      "reach 0 1 0xxxxxxx junk"  // trailing garbage
  };
  for (const char* spec : bad_specs) {
    std::string error;
    EXPECT_FALSE(InvariantSet::parse(spec, &error).has_value()) << spec;
    EXPECT_NE(error.find("line 1"), std::string::npos) << spec << ": " << error;
  }
}

// --- The incrementality property. ---

// Drive a synthesized network through random install/remove churn and
// require, after every burst, that apply_delta over the batch's touched
// region produces a report bit-identical to a from-scratch verify of the
// same snapshot — while actually reusing classes (otherwise the test only
// proves the trivial "re-verify everything" implementation). A copy of the
// verifier taken before the burst must give the same report too.
TEST(VerifierChurn, ApplyDeltaIsBitIdenticalToFullReverify) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    topo::GeneratorConfig tc;
    tc.node_count = 8;
    tc.link_count = 13;
    tc.seed = seed;
    const topo::Graph topo = topo::make_rocketfuel_like(tc);
    flow::SynthesizerConfig sc;
    sc.target_entry_count = 220;
    sc.seed = seed * 31 + 7;
    flow::RuleSet rules = flow::synthesize_ruleset(topo, sc);
    flow::SynthesizerConfig rc = sc;
    rc.target_entry_count = 120;
    rc.seed = seed * 131 + 71;
    const flow::RuleSet reservoir = flow::synthesize_ruleset(topo, rc);

    InvariantSet invs = InvariantSet::builtin();
    invs.add(Invariant::reach(0, 7));
    invs.add(Invariant::no_reach(1, 6));
    invs.add(Invariant::waypoint(0, 3, 5));

    core::RuleGraph graph(rules);
    Verifier incremental(invs);
    incremental.verify(core::AnalysisSnapshot::adopt(graph));

    util::Rng rng(util::Rng::derive(seed, 0xD17A));
    std::vector<flow::EntryId> live;
    for (std::size_t i = 0; i < rules.entry_count(); ++i) {
      live.push_back(static_cast<flow::EntryId>(i));
    }
    std::size_t next_reservoir = 0;
    std::size_t reused_total = 0;

    constexpr int kBursts = 5;
    constexpr int kOpsPerBurst = 8;
    for (int burst = 0; burst < kBursts; ++burst) {
      // A copy taken before the burst (repair's dry runs start from one)
      // must still hold the pre-burst state once `incremental` moves on.
      const Verifier before = incremental;
      std::vector<core::VertexId> touched;
      for (int op = 0; op < kOpsPerBurst; ++op) {
        const bool do_install = live.empty() ||
                                (next_reservoir < reservoir.entry_count() &&
                                 rng.next_bool(0.45));
        if (do_install) {
          flow::FlowEntry e =
              reservoir.entry(static_cast<flow::EntryId>(next_reservoir++));
          e.id = -1;
          const flow::EntryId id = rules.add_entry(std::move(e));
          graph.apply_entry_added(id, &touched);
          live.push_back(id);
        } else {
          const std::size_t pick = rng.pick_index(live.size());
          const flow::EntryId id = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          ASSERT_TRUE(rules.remove_entry(id));
          const auto removed_touched = graph.apply_entry_removed(id);
          touched.insert(touched.end(), removed_touched.begin(),
                         removed_touched.end());
        }
      }
      const core::AnalysisSnapshot snap = core::AnalysisSnapshot::adopt(graph);
      const VerifyReport delta = incremental.apply_delta(snap, touched);
      Verifier fresh(invs);
      const VerifyReport full = fresh.verify(snap);
      ASSERT_EQ(delta.to_string(), full.to_string())
          << "seed " << seed << " burst " << burst;
      Verifier copy = before;
      ASSERT_EQ(copy.apply_delta(snap, touched).to_string(), full.to_string())
          << "seed " << seed << " burst " << burst << " (copy)";
      ASSERT_EQ(delta.stats().classes_total, full.stats().classes_total)
          << "seed " << seed << " burst " << burst;
      ASSERT_TRUE(delta.is_sorted());
      reused_total += delta.stats().classes_reused;
    }
    // The delta path must actually slice: most classes survive most bursts.
    EXPECT_GT(reused_total, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sdnprobe::analysis

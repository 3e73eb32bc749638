// Tests for analysis::Linter: each seeded defect class is flagged with the
// right check id and severity, near-miss structures are NOT flagged
// (partially shadowed entries, reachable tables), clean rulesets produce no
// error diagnostics, and strict mode refuses to construct a snapshot over a
// broken ruleset.
#include <gtest/gtest.h>

#include <string>

#include "analysis/linter.h"
#include "flow/campus.h"
#include "topo/graph.h"

namespace sdnprobe::analysis {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

// A 2-switch line topology; width-8 headers.
struct Fixture {
  Fixture() : rules(make_graph(), 8) {}

  static topo::Graph make_graph() {
    topo::Graph g(2);
    g.add_edge(0, 1);
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

  flow::PortId port01() const { return *rules.ports().port_to(0, 1); }
  flow::PortId host(flow::SwitchId sw) const {
    return rules.ports().host_port(sw);
  }

  flow::RuleSet rules;
};

TEST(Linter, CleanRulesetHasNoDiagnostics) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const LintReport report = Linter().run(f.rules);
  EXPECT_EQ(report.size(), 0u) << report.to_string();
}

TEST(Linter, FullyShadowedEntryIsFlaggedAsWarning) {
  Fixture f;
  const auto cover =
      f.add(0, 0, 20, ts("00xxxxxx"), flow::Action::output(f.port01()));
  const auto shadowed =
      f.add(0, 0, 10, ts("0000xxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));

  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kShadowedEntry), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kShadowedEntry)[0];
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.entry_id, shadowed);
  // The covering entry is named in the evidence payload.
  ASSERT_FALSE(d->payload.empty());
  EXPECT_EQ(d->payload[0].first, "covered-by");
  EXPECT_EQ(d->payload[0].second, std::to_string(cover));
}

// An equal-priority entry installed earlier wins lookup just as a
// higher-priority one does (tie-aware semantics), so it is named as a
// covering entry too; the payload lists covering entries in table order.
TEST(Linter, ShadowedEntryNamesEqualPriorityCoverers) {
  Fixture f;
  const auto tie =
      f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  f.add(0, 0, 10, ts("01xxxxxx"), flow::Action::output(f.host(0)));
  const auto above =
      f.add(0, 0, 20, ts("0001xxxx"), flow::Action::output(f.host(0)));
  const auto shadowed =
      f.add(0, 0, 10, ts("000xxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));

  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kShadowedEntry), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kShadowedEntry)[0];
  EXPECT_EQ(d->location.entry_id, shadowed);
  EXPECT_NE(d->message.find("by 2 earlier overlapping entries"),
            std::string::npos)
      << d->message;
  ASSERT_FALSE(d->payload.empty());
  EXPECT_EQ(d->payload[0].first, "covered-by");
  EXPECT_EQ(d->payload[0].second,
            std::to_string(above) + "," + std::to_string(tie));
}

TEST(Linter, PartiallyShadowedEntryIsNotFlagged) {
  Fixture f;
  f.add(0, 0, 20, ts("0000xxxx"), flow::Action::output(f.port01()));
  // Lower priority but wider: part of its match survives the subtraction.
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));

  const LintReport report = Linter().run(f.rules);
  EXPECT_EQ(report.count(CheckId::kShadowedEntry), 0u) << report.to_string();
}

TEST(Linter, GotoTableCycleIsError) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::goto_table(1));
  f.add(0, 1, 10, ts("00xxxxxx"), flow::Action::goto_table(0));
  const LintReport report = Linter().run(f.rules);
  ASSERT_GE(report.count(CheckId::kGotoCycle), 1u) << report.to_string();
  EXPECT_EQ(report.by_check(CheckId::kGotoCycle)[0]->severity,
            Severity::kError);
}

TEST(Linter, DanglingOutputPortIsError) {
  Fixture f;
  // Switch 0 has one neighbor: valid ports are 0 (to sw1) and 1 (host).
  const auto bad =
      f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(flow::PortId{5}));
  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kDanglingOutput), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kDanglingOutput)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.entry_id, bad);
}

TEST(Linter, DanglingGotoIsError) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::goto_table(7));
  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kDanglingGoto), 1u) << report.to_string();
  EXPECT_EQ(report.by_check(CheckId::kDanglingGoto)[0]->severity,
            Severity::kError);
}

TEST(Linter, EmptyMatchAfterSetFieldIsError) {
  Fixture f;
  // sw0 rewrites into 111..., but sw1 only matches 00...: nothing the entry
  // emits can be handled downstream.
  const auto bad = f.add(0, 0, 10, ts("10xxxxxx"),
                         flow::Action::output(f.port01()), ts("111xxxxx"));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kEmptyMatch), 1u) << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kEmptyMatch)[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.entry_id, bad);
}

TEST(Linter, ForwardingIntoAMatchingPeerIsNotEmptyMatch) {
  Fixture f;
  f.add(0, 0, 10, ts("10xxxxxx"), flow::Action::output(f.port01()),
        ts("00xxxxxx"));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const LintReport report = Linter().run(f.rules);
  EXPECT_EQ(report.count(CheckId::kEmptyMatch), 0u) << report.to_string();
}

TEST(Linter, UnreachableTableIsWarning) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  // Table 1 exists (non-empty) but no goto from table 0 reaches it.
  f.add(0, 1, 10, ts("01xxxxxx"), flow::Action::output(f.host(0)));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kUnreachableTable), 1u)
      << report.to_string();
  EXPECT_EQ(report.by_check(CheckId::kUnreachableTable)[0]->severity,
            Severity::kWarning);
}

TEST(Linter, DisconnectedTopologyIsWarning) {
  topo::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  flow::RuleSet rules(g, 8);
  const LintReport report = Linter().run(rules);
  EXPECT_EQ(report.count(CheckId::kTopologyDisconnected), 1u)
      << report.to_string();
  EXPECT_EQ(report.count(Severity::kError), 0u) << report.to_string();
}

TEST(Linter, SnapshotRunFindsRuleGraphCycle) {
  Fixture f;
  const flow::PortId p10 = *f.rules.ports().port_to(1, 0);
  f.add(0, 0, 10, ts("1100xxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("1100xxxx"), flow::Action::output(p10));
  const core::AnalysisSnapshot snapshot =
      core::AnalysisSnapshot::build(f.rules);
  const LintReport report = Linter().run(snapshot);
  ASSERT_GE(report.count(CheckId::kRuleGraphCycle), 1u) << report.to_string();
  EXPECT_EQ(report.by_check(CheckId::kRuleGraphCycle)[0]->severity,
            Severity::kError);
}

TEST(Linter, SnapshotRunFindsEdgeWitnesses) {
  // A clean forwarding chain: the witness cross-check must find a header
  // for every edge (no unsat-edge diagnostics), with no truncation at the
  // default edge_witness_budget.
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const core::AnalysisSnapshot snapshot =
      core::AnalysisSnapshot::build(f.rules);
  const LintReport report = Linter().run(snapshot);
  EXPECT_EQ(report.count(CheckId::kUnsatEdge), 0u) << report.to_string();
  EXPECT_EQ(report.count(Severity::kInfo), 0u) << report.to_string();
}

TEST(BuildCheckedSnapshot, StrictModeThrowsOnErrors) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(flow::PortId{9}));
  LintConfig strict;
  strict.strict = true;
  EXPECT_THROW(build_checked_snapshot(f.rules, strict), LintError);
}

TEST(BuildCheckedSnapshot, StrictModeErrorCarriesTheReport) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(flow::PortId{9}));
  LintConfig strict;
  strict.strict = true;
  try {
    build_checked_snapshot(f.rules, strict);
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    EXPECT_GE(e.report().count(CheckId::kDanglingOutput), 1u);
    EXPECT_NE(std::string(e.what()).find("dangling-output"),
              std::string::npos);
  }
}

TEST(BuildCheckedSnapshot, NonStrictReturnsSnapshotAndReport) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(flow::PortId{9}));
  LintReport report;
  const core::AnalysisSnapshot snapshot =
      build_checked_snapshot(f.rules, {}, &report);
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(snapshot.vertex_count(), 1);
}

TEST(BuildCheckedSnapshot, CleanCampusRulesetPassesStrict) {
  const flow::RuleSet rules = flow::make_campus_ruleset({});
  LintConfig strict;
  strict.strict = true;
  LintReport report;
  EXPECT_NO_THROW({
    const core::AnalysisSnapshot snapshot =
        build_checked_snapshot(rules, strict, &report);
    (void)snapshot;
  });
  EXPECT_EQ(report.count(Severity::kError), 0u);
}

TEST(LintReportTest, RenderingAndCounting) {
  LintReport report;
  Diagnostic d;
  d.severity = Severity::kError;
  d.check = CheckId::kDanglingOutput;
  d.location = {.switch_id = 2, .table_id = 0, .entry_id = 17};
  d.message = "output to nonexistent port 9";
  d.payload.emplace_back("port", "9");
  report.add(d);

  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_EQ(report.count(CheckId::kDanglingOutput), 1u);
  EXPECT_TRUE(report.has_errors());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("dangling-output"), std::string::npos);
  EXPECT_NE(text.find("sw=2"), std::string::npos);
  EXPECT_NE(text.find("entry=17"), std::string::npos);
  EXPECT_NE(text.find("port=9"), std::string::npos);
}

TEST(Linter, AmbiguousPriorityOverlapIsWarnedAtTheLaterEntry) {
  Fixture f;
  const auto first =
      f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  const auto second =
      f.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(f.host(0)));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));

  const LintReport report = Linter().run(f.rules);
  ASSERT_EQ(report.count(CheckId::kAmbiguousPriority), 1u)
      << report.to_string();
  const Diagnostic* d = report.by_check(CheckId::kAmbiguousPriority)[0];
  EXPECT_EQ(d->severity, Severity::kWarning);
  // The later-installed entry is flagged, naming the earlier one it ties
  // with (install order decides the winner under tie-aware semantics).
  EXPECT_EQ(d->location.entry_id, second);
  ASSERT_FALSE(d->payload.empty());
  EXPECT_EQ(d->payload[0].first, "ties-with");
  EXPECT_EQ(d->payload[0].second, std::to_string(first));
}

TEST(Linter, SamePriorityDisjointEntriesAreNotAmbiguous) {
  Fixture f;
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::output(f.port01()));
  f.add(0, 0, 10, ts("01xxxxxx"), flow::Action::output(f.host(0)));
  // Overlapping matches at *different* priorities are ordinary shadowing
  // structure, not ambiguity.
  f.add(0, 0, 5, ts("0xxxxxxx"), flow::Action::output(f.host(0)));
  f.add(1, 0, 10, ts("00xxxxxx"), flow::Action::output(f.host(1)));
  const LintReport report = Linter().run(f.rules);
  EXPECT_EQ(report.count(CheckId::kAmbiguousPriority), 0u)
      << report.to_string();
}

// Reports leave the linter sorted by (check, switch, table, entry) so their
// rendering is a pure function of the analyzed model.
TEST(Linter, ReportIsDeterministicallySorted) {
  Fixture f;
  // Seed defects across switches and checks, installed in scrambled order.
  f.add(1, 0, 10, ts("01xxxxxx"), flow::Action::output(flow::PortId{9}));
  f.add(0, 0, 10, ts("00xxxxxx"), flow::Action::goto_table(7));
  f.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(flow::PortId{8}));
  const LintReport a = Linter().run(f.rules);
  const LintReport b = Linter().run(f.rules);
  EXPECT_TRUE(a.is_sorted());
  EXPECT_EQ(a.to_string(), b.to_string());
  // Sorted means grouped by check id first, then location.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(static_cast<int>(a.diagnostics()[i - 1].check),
              static_cast<int>(a.diagnostics()[i].check));
  }
}

TEST(BuildCheckedSnapshot, InvariantDiagnosticsAreMergedIntoTheReport) {
  Fixture f;
  f.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(f.host(1)));
  LintConfig config;
  config.invariants.add(Invariant::no_reach(0, 1));  // violated by design
  LintReport report;
  const core::AnalysisSnapshot snapshot =
      build_checked_snapshot(f.rules, config, &report);
  (void)snapshot;
  EXPECT_EQ(report.count(CheckId::kForbiddenPath), 1u) << report.to_string();
  EXPECT_TRUE(report.is_sorted());
}

TEST(BuildCheckedSnapshot, InvariantStrictModeRefusesViolatedSnapshots) {
  Fixture f;
  f.add(0, 0, 10, ts("0xxxxxxx"), flow::Action::output(f.port01()));
  f.add(1, 0, 10, ts("0xxxxxxx"), flow::Action::output(f.host(1)));
  LintConfig config;
  config.invariants.add(Invariant::no_reach(0, 1));
  config.strict = true;
  try {
    build_checked_snapshot(f.rules, config);
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    EXPECT_GE(e.report().count(CheckId::kForbiddenPath), 1u);
  }

  // The same network under a satisfiable invariant set constructs fine.
  config.invariants = InvariantSet::builtin();
  config.invariants.add(Invariant::reach(0, 1));
  EXPECT_NO_THROW(build_checked_snapshot(f.rules, config));
}

}  // namespace
}  // namespace sdnprobe::analysis

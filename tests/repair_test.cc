// Tests for repair:: — the self-healing loop (DESIGN.md §15): corpus
// serialization, entry-granular diagnosis, the patch safety ladder
// (verify -> fence -> lint -> confirm -> rollback), inverse-churn
// bit-identity, and determinism across monitor thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/invariant.h"
#include "analysis/verifier.h"
#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "repair/corpus.h"
#include "repair/diagnosis.h"
#include "repair/engine.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace sdnprobe::repair {
namespace {

using monitor::ChurnOp;

struct Fixture {
  flow::RuleSet rules;
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;
  std::unique_ptr<monitor::Monitor> mon;
  flow::RuleSet spare;  // same-shape entries to install as churn

  explicit Fixture(std::uint64_t seed = 11, long entries = 500,
                   monitor::MonitorConfig config = {}) {
    topo::GeneratorConfig tc;
    tc.node_count = 12;
    tc.link_count = 20;
    tc.seed = seed;
    const topo::Graph g = topo::make_rocketfuel_like(tc);
    flow::SynthesizerConfig sc;
    sc.target_entry_count = entries;
    sc.seed = seed + 1;
    rules = flow::synthesize_ruleset(g, sc);
    flow::SynthesizerConfig spare_sc = sc;
    spare_sc.target_entry_count = entries / 4;
    spare_sc.seed = seed + 2;
    spare = flow::synthesize_ruleset(g, spare_sc);
    net = std::make_unique<dataplane::Network>(rules, loop);
    ctrl = std::make_unique<controller::Controller>(rules, *net);
    mon = std::make_unique<monitor::Monitor>(rules, *ctrl, loop, config);
  }

  flow::FlowEntry spare_entry(std::size_t i) {
    flow::FlowEntry e = spare.entry(static_cast<flow::EntryId>(i));
    e.id = -1;
    return e;
  }
};

core::FaultMix only_drop() {
  core::FaultMix m;
  m.misdirect = false;
  m.modify = false;
  return m;
}

core::FaultMix only_misdirect() {
  core::FaultMix m;
  m.drop = false;
  m.modify = false;
  return m;
}

core::FaultMix only_modify() {
  core::FaultMix m;
  m.drop = false;
  m.misdirect = false;
  return m;
}

// Injects one basic fault on a monitor-chosen entry after a clean round,
// then runs rounds until the monitor flags a switch.
flow::EntryId inject_and_flag(Fixture& fx, const core::FaultMix& mix,
                              std::uint64_t seed = 7) {
  fx.mon->run_round();
  EXPECT_TRUE(fx.mon->report().flagged_switches.empty());
  util::Rng rng(seed);
  const auto snap = fx.mon->snapshot();
  const auto ids = core::choose_faulty_entries(snap->graph(), 1, rng);
  fx.net->faults().add_fault(ids[0],
                             core::make_fault(snap->graph(), ids[0], mix, rng));
  for (int i = 0; i < 5 && fx.mon->report().flagged_switches.empty(); ++i) {
    fx.mon->run_round();
  }
  return ids[0];
}

// A patch attempt that reached the dataplane without surviving the
// dry-run verifier would break the engine's core safety promise.
void expect_no_unverified_install(const RepairOutcome& out) {
  for (const PatchAttempt& at : out.attempts) {
    EXPECT_TRUE(!at.installed || at.verified)
        << strategy_name(at.strategy) << " installed without verification";
  }
}

// A 4-switch chain 0-1-2-3 with one forwarding entry per switch and a
// whole-switch drop fault on switch 1 — a cut vertex, so no reroute
// exists, reinstalled copies inherit the switch fault, and every installed
// patch must fail its confirm and roll back (the corpus "unhealed" case).
Scenario chain_scenario() {
  Scenario s;
  s.note = "switch-level drop on a chain cut vertex; no alternate path";
  s.expect = "unhealed";
  s.header_width = 8;
  s.nodes = 4;
  s.edges = {{0, 1, 0.001}, {1, 2, 0.001}, {2, 3, 0.001}};
  const auto fwd = [](flow::SwitchId sw, flow::PortId out) {
    flow::FlowEntry e;
    e.switch_id = sw;
    e.table_id = 0;
    e.priority = 10;
    e.match = *hsa::TernaryString::parse("1xxxxxxx");
    e.set_field = hsa::TernaryString::wildcard(8);
    e.action = flow::Action::output(out);
    return e;
  };
  // Port i connects to the i-th sorted neighbor; the last port is the host
  // port (flow::PortMap convention).
  s.entries = {fwd(0, 0), fwd(1, 1), fwd(2, 1), fwd(3, 1)};
  ScenarioFault f;
  f.is_switch = true;
  f.switch_id = 1;
  f.spec.kind = dataplane::FaultKind::kDrop;
  s.faults.push_back(f);
  return s;
}

TEST(Corpus, SerializeParseRoundTrip) {
  Scenario s = chain_scenario();
  // Exercise every record type: add an entry-level intermittent targeting
  // misdirect alongside the switch fault.
  ScenarioFault f;
  f.is_switch = false;
  f.entry_index = 2;
  f.spec.kind = dataplane::FaultKind::kMisdirect;
  f.spec.misdirect_port = 0;
  f.spec.is_intermittent = true;
  f.spec.period_s = 2.0;
  f.spec.duty_cycle = 0.5;
  f.spec.phase_s = 0.25;
  f.spec.target = *hsa::TernaryString::parse("1xxxxxx0");
  s.faults.push_back(f);

  const std::string text = serialize_scenario(s);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->note, s.note);
  EXPECT_EQ(parsed->expect, s.expect);
  EXPECT_EQ(parsed->header_width, s.header_width);
  EXPECT_EQ(parsed->nodes, s.nodes);
  ASSERT_EQ(parsed->edges.size(), s.edges.size());
  ASSERT_EQ(parsed->entries.size(), s.entries.size());
  ASSERT_EQ(parsed->faults.size(), s.faults.size());
  EXPECT_TRUE(parsed->faults[0].is_switch);
  EXPECT_EQ(parsed->faults[0].switch_id, 1);
  EXPECT_FALSE(parsed->faults[1].is_switch);
  EXPECT_EQ(parsed->faults[1].entry_index, 2);
  EXPECT_TRUE(parsed->faults[1].spec.is_intermittent);
  EXPECT_EQ(parsed->faults[1].spec.target.to_string(), "1xxxxxx0");
  // Fixed point: serialize(parse(serialize(s))) == serialize(s).
  EXPECT_EQ(serialize_scenario(*parsed), text);
}

TEST(Corpus, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_scenario("").has_value());
  EXPECT_FALSE(parse_scenario("not.the.magic\nnodes 2\n").has_value());
  const std::string magic = "sdnprobe.scenario.v1\n";
  EXPECT_FALSE(parse_scenario(magic + "entry 0 0\n").has_value());
  EXPECT_FALSE(parse_scenario(magic + "bogus 1\n").has_value());
  EXPECT_FALSE(
      parse_scenario(magic + "fault entry 0 kind=flux\n").has_value());
  EXPECT_FALSE(
      parse_scenario(magic + "entry 0 0 10 1x zz output 0\n").has_value());
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_scenario(magic + "# a comment\n\nnodes 2\n").has_value());

  // Well-formed lines whose references point outside the scenario. Each
  // used to crash the replay (or replay the wrong fault).
  const std::string world = magic +
                            "width 8\nnodes 4\nedge 0 1 0.001\n"
                            "entry 0 0 10 1xxxxxxx xxxxxxxx output 0\n";
  ASSERT_TRUE(parse_scenario(world + "fault entry 0 kind=drop\n").has_value());
  for (const std::string bad : {
           "edge 2 7 0.001\n",                                // endpoint
           "edge -1 2 0.001\n",                               // endpoint
           "entry 9 0 10 1xxxxxxx xxxxxxxx output 0\n",       // switch
           "entry 1 -1 10 1xxxxxxx xxxxxxxx output 0\n",      // table
           "entry 1 0 10 1xxxxxx xxxxxxxx output 0\n",        // match width
           "entry 1 0 10 1xxxxxxx xxxxxxxxx output 0\n",      // set width
           "fault entry 99 kind=drop\n",                      // entry index
           "fault entry -1 kind=drop\n",                      // entry index
           "fault switch 4 kind=drop\n",                      // switch
           "width 200\n",                                     // width
           "width 0\n",                                       // width
       }) {
    EXPECT_FALSE(parse_scenario(world + bad).has_value()) << bad;
  }
  // Out-of-range widths and node counts fail on their own, too.
  EXPECT_FALSE(parse_scenario(magic + "width 200\nnodes 2\n").has_value());
  EXPECT_FALSE(parse_scenario(magic + "nodes -1\n").has_value());
}

TEST(Corpus, CaptureRebuildMatchesLiveFingerprint) {
  Fixture fx;
  util::Rng rng(3);
  const auto snap = fx.mon->snapshot();
  const auto ids = core::choose_faulty_entries(snap->graph(), 2, rng);
  core::FaultMix mix;
  for (const flow::EntryId id : ids) {
    fx.net->faults().add_fault(id,
                               core::make_fault(snap->graph(), id, mix, rng));
  }
  dataplane::FaultSpec sw_drop;
  sw_drop.kind = dataplane::FaultKind::kDrop;
  fx.net->faults().add_switch_fault(3, sw_drop);

  const Scenario s =
      capture_scenario(fx.rules, fx.net->faults(), "live capture", "detected");
  const auto parsed = parse_scenario(serialize_scenario(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->faults.size(), ids.size() + 1);

  flow::RuleSet rebuilt = build_ruleset(*parsed);
  EXPECT_EQ(rebuilt.entry_count(), parsed->entries.size());
  dataplane::FaultInjector inj;
  install_faults(*parsed, inj);
  EXPECT_EQ(inj.fault_count(), parsed->faults.size());
  EXPECT_TRUE(inj.switch_is_faulty(3));

  // The rebuilt world is semantically identical to the captured one even
  // though EntryIds were densely renumbered: canonical fingerprints match.
  core::RuleGraph graph(rebuilt);
  const core::AnalysisSnapshot rebuilt_snap(graph);
  EXPECT_EQ(core::canonical_fingerprint(rebuilt_snap),
            core::canonical_fingerprint(*snap));
}

// Satellite: installing a churn batch and then its exact inverse leaves the
// network semantically bit-identical (up to EntryId renumbering, which the
// canonical fingerprint quotients out).
TEST(Rollback, InverseChurnRestoresCanonicalFingerprint) {
  Fixture fx;
  const std::string before = core::canonical_fingerprint(*fx.mon->snapshot());
  for (std::size_t i = 0; i < 4; ++i) {
    fx.mon->enqueue(ChurnOp::install(fx.spare_entry(i)));
  }
  fx.mon->enqueue(ChurnOp::remove(5));
  fx.mon->enqueue(ChurnOp::remove(6));
  fx.mon->drain_churn();
  const std::string mutated = core::canonical_fingerprint(*fx.mon->snapshot());
  EXPECT_NE(before, mutated);

  const monitor::ChurnLog log = fx.mon->last_churn();
  ASSERT_EQ(log.applied.size(), 6u);
  for (ChurnOp& op : monitor::Monitor::invert(log)) {
    fx.mon->enqueue(std::move(op));
  }
  fx.mon->drain_churn();
  EXPECT_EQ(core::canonical_fingerprint(*fx.mon->snapshot()), before);
}

// Satellite: the detection report carries per-probe evidence — expected
// path, deviation kind, and which entries cleared on passing probes.
TEST(Evidence, DropFaultYieldsMissingProbeEvidence) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, only_drop());
  const core::DetectionReport& rep = fx.mon->last_detection();
  ASSERT_FALSE(rep.flagged_switches.empty());
  ASSERT_FALSE(rep.evidence.empty());
  EXPECT_FALSE(rep.suspicion.empty());
  EXPECT_FALSE(rep.cleared_entries.empty());
  bool missing_through_bad = false;
  for (const core::ProbeEvidence& ev : rep.evidence) {
    EXPECT_FALSE(ev.expected_path.empty());
    if (ev.deviation != core::DeviationKind::kMissing) continue;
    for (const flow::EntryId e : ev.expected_path) {
      if (e == bad) missing_through_bad = true;
    }
  }
  EXPECT_TRUE(missing_through_bad)
      << "no kMissing evidence crossed the dropped entry " << bad;
}

TEST(Diagnoser, ClassifiesDropFault) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, only_drop());
  ASSERT_EQ(fx.mon->report().flagged_switches.size(), 1u);
  const flow::SwitchId sw = fx.rules.entry(bad).switch_id;
  const FaultDiagnosis d = Diagnoser().diagnose(
      *fx.mon->snapshot(), fx.mon->last_detection(), sw);
  EXPECT_EQ(d.switch_id, sw);
  EXPECT_EQ(d.fault_class, FaultClass::kDroppedEntry) << d.to_string();
  ASSERT_FALSE(d.suspects.empty());
  EXPECT_EQ(d.suspects.front().entry_id, bad) << d.to_string();
  EXPECT_GT(d.confidence, 0.0);
  EXPECT_FALSE(d.rationale.empty());
}

TEST(Diagnoser, ClassifiesModifyFaultAsCorruption) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, only_modify(), 5);
  ASSERT_EQ(fx.mon->report().flagged_switches.size(), 1u);
  const flow::SwitchId sw = fx.rules.entry(bad).switch_id;
  const FaultDiagnosis d = Diagnoser().diagnose(
      *fx.mon->snapshot(), fx.mon->last_detection(), sw);
  EXPECT_EQ(d.fault_class, FaultClass::kCorruptedEntry) << d.to_string();
  ASSERT_FALSE(d.suspects.empty());
  EXPECT_EQ(d.suspects.front().entry_id, bad) << d.to_string();
}

TEST(Diagnoser, MisdirectSuspectsTheInjectedEntry) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, only_misdirect());
  ASSERT_EQ(fx.mon->report().flagged_switches.size(), 1u);
  const flow::SwitchId sw = fx.rules.entry(bad).switch_id;
  const FaultDiagnosis d = Diagnoser().diagnose(
      *fx.mon->snapshot(), fx.mon->last_detection(), sw);
  ASSERT_FALSE(d.suspects.empty());
  EXPECT_EQ(d.suspects.front().entry_id, bad) << d.to_string();
  // A misdirected probe that is delivered off-path classifies as
  // misdirecting output; one that vanishes downstream is observationally a
  // drop. Both point repair at the right entry.
  EXPECT_TRUE(d.fault_class == FaultClass::kMisdirectingOutput ||
              d.fault_class == FaultClass::kDroppedEntry)
      << d.to_string();
}

TEST(Diagnoser, UnknownWithoutEvidence) {
  Fixture fx;
  fx.mon->run_round();
  const core::DetectionReport empty_rep;
  const FaultDiagnosis d =
      Diagnoser().diagnose(*fx.mon->snapshot(), empty_rep, 0);
  EXPECT_EQ(d.fault_class, FaultClass::kUnknown);
  EXPECT_DOUBLE_EQ(d.confidence, 0.0);
  EXPECT_TRUE(d.suspects.empty());
}

void run_heal_case(const core::FaultMix& mix, std::uint64_t seed) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, mix, seed);
  ASSERT_EQ(fx.mon->report().flagged_switches.size(), 1u);
  const flow::SwitchId sw = fx.rules.entry(bad).switch_id;

  RepairConfig rc;
  rc.invariants = analysis::InvariantSet::builtin();
  analysis::Verifier checker(rc.invariants);
  const std::size_t errors_before =
      checker.verify(*fx.mon->snapshot()).count(analysis::Severity::kError);

  RepairEngine eng(*fx.mon, *fx.ctrl, fx.loop, rc);
  const RepairOutcome out = eng.heal(sw);
  EXPECT_TRUE(out.healed) << out.to_string();
  EXPECT_FALSE(out.quarantined) << out.to_string();
  expect_no_unverified_install(out);
  EXPECT_GT(out.patches_proposed, 0u);
  EXPECT_GT(out.time_to_heal_s, 0.0);

  // Heal cleared the flag, introduced no invariant violation, and the next
  // monitoring round is quiet again.
  EXPECT_TRUE(fx.mon->report().flagged_switches.empty());
  analysis::Verifier recheck(rc.invariants);
  EXPECT_EQ(
      recheck.verify(*fx.mon->snapshot()).count(analysis::Severity::kError),
      errors_before);
  const std::uint64_t failures = fx.mon->report().failures;
  fx.mon->run_round();
  EXPECT_EQ(fx.mon->report().failures, failures);
  EXPECT_TRUE(fx.mon->report().flagged_switches.empty());
}

TEST(RepairEngine, HealsDropFault) { run_heal_case(only_drop(), 7); }

TEST(RepairEngine, HealsMisdirectFault) { run_heal_case(only_misdirect(), 7); }

TEST(RepairEngine, HealsModifyFault) { run_heal_case(only_modify(), 5); }

// Satellite: concurrent churn landing between verification and install
// must force a re-verify against the new epoch — a patch verified against
// a stale snapshot never reaches the dataplane.
TEST(RepairEngine, EpochFenceReverifiesWhenChurnLandsMidHeal) {
  Fixture fx;
  const flow::EntryId bad = inject_and_flag(fx, only_drop());
  ASSERT_EQ(fx.mon->report().flagged_switches.size(), 1u);
  const flow::SwitchId sw = fx.rules.entry(bad).switch_id;

  RepairConfig rc;
  bool injected = false;
  rc.after_verify_hook = [&fx, &injected] {
    if (injected) return;
    injected = true;
    fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  };
  RepairEngine eng(*fx.mon, *fx.ctrl, fx.loop, rc);
  const std::uint64_t epoch_before = fx.mon->epoch();
  const RepairOutcome out = eng.heal(sw);
  EXPECT_TRUE(injected);
  EXPECT_GE(out.verify_reruns, 1) << out.to_string();
  EXPECT_TRUE(out.healed) << out.to_string();
  expect_no_unverified_install(out);
  // The concurrent install was adopted (epoch advanced past the hook's
  // batch plus the patch batch) and coverage includes it.
  EXPECT_GT(fx.mon->epoch(), epoch_before + 1);
}

// The known-unfixable world: a whole-switch fault on a cut vertex.
// Reinstalled copies inherit the switch fault, no reroute exists, so every
// installed patch must fail its confirm, roll back, and leave the network
// semantically untouched.
TEST(RepairEngine, SwitchFaultOnCutVertexRollsBackCleanly) {
  const Scenario sc = chain_scenario();
  flow::RuleSet rules = build_ruleset(sc);
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);
  monitor::Monitor mon(rules, ctrl, loop, {});
  mon.run_round();
  ASSERT_TRUE(mon.report().flagged_switches.empty());

  install_faults(sc, net.faults());
  for (int i = 0; i < 5 && mon.report().flagged_switches.empty(); ++i) {
    mon.run_round();
  }
  ASSERT_EQ(mon.report().flagged_switches.size(), 1u);
  EXPECT_EQ(mon.report().flagged_switches[0], 1);

  const std::string before = core::canonical_fingerprint(*mon.snapshot());
  RepairEngine eng(mon, ctrl, loop, {});
  const RepairOutcome out = eng.heal(1);
  EXPECT_FALSE(out.healed) << out.to_string();
  expect_no_unverified_install(out);
  bool any_rollback = false;
  for (const PatchAttempt& at : out.attempts) {
    if (at.installed) {
      EXPECT_TRUE(at.rolled_back)
          << strategy_name(at.strategy) << " left a failed patch installed";
      any_rollback = true;
    }
  }
  EXPECT_TRUE(any_rollback) << out.to_string();
  EXPECT_EQ(core::canonical_fingerprint(*mon.snapshot()), before);
  // The flag stays up: the switch genuinely needs hands.
  EXPECT_EQ(mon.report().flagged_switches.size(), 1u);
}

// A heal episode is a pure function of (world, seed): running the same
// scenario under different monitor thread counts produces bit-identical
// outcomes and final network state.
TEST(RepairEngine, HealIsDeterministicAcrossMonitorThreadCounts) {
  const auto run = [](int threads) {
    monitor::MonitorConfig mc;
    mc.common.threads = threads;
    Fixture fx(31, 500, mc);
    const flow::EntryId bad = inject_and_flag(fx, only_drop(), 9);
    EXPECT_EQ(fx.mon->report().flagged_switches.size(), 1u);
    RepairEngine eng(*fx.mon, *fx.ctrl, fx.loop, RepairConfig{});
    const RepairOutcome out = eng.heal(fx.rules.entry(bad).switch_id);
    return std::make_tuple(
        out.healed, out.quarantined, out.strategy, out.attempts.size(),
        out.patches_proposed, out.verify_reruns, out.time_to_heal_s,
        out.diagnosis.to_string(),
        core::canonical_fingerprint(*fx.mon->snapshot()));
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_EQ(one, two);
}

}  // namespace
}  // namespace sdnprobe::repair

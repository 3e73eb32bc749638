// Campus-backbone audit (the paper's §VIII-A setting): two routing tables
// with deep overlapping-rule chains, probe synthesis with a lex-min header
// fallback, and a full audit pass that verifies every forwarding entry
// against the control-plane intent, then localizes an injected misbehaving
// entry.
//
// Build & run:  cmake --build build && ./build/examples/campus_audit
#include <cstdio>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "dataplane/network.h"
#include "flow/campus.h"
#include "util/timer.h"

using namespace sdnprobe;

int main() {
  flow::CampusConfig config;  // paper defaults: 550 + 579 entries, 65-deep
  const flow::RuleSet rules = flow::make_campus_ruleset(config);
  std::printf("campus backbone: %zu + %zu routing entries, deepest overlap "
              "chain %d\n",
              rules.table(0, 0).size(), rules.table(1, 0).size(),
              rules.max_overlap_chain());

  util::WallTimer precompute;
  core::RuleGraph graph(rules);
  const core::AnalysisSnapshot snap(graph);
  const core::Cover cover = core::MlpcSolver().solve(snap);
  std::printf("audit plan: %zu probes for %d testable entries "
              "(pre-computed in %.0f ms)\n",
              cover.path_count(), graph.vertex_count(),
              precompute.elapsed_millis());

  // Clean audit: every probe must come back.
  {
    sim::EventLoop loop;
    dataplane::Network net(rules, loop);
    controller::Controller ctrl(rules, net);
    core::LocalizerConfig lc;
    lc.max_rounds = 4;
    core::FaultLocalizer audit(snap, ctrl, loop, lc);
    const auto report = audit.run();
    std::printf("clean audit: %zu probes, %zu flagged switches "
                "(expected 0), %.2f s\n",
                report.probes_sent, report.flagged_switches.size(),
                report.total_time_s);
    if (!report.flagged_switches.empty()) {
      std::printf("FAIL: the clean audit flagged a healthy switch\n");
      return 1;
    }
  }

  // Misbehaving entry deep inside an overlap chain: the kind of fault that
  // per-rule inspection of 1,129 entries would take ages to pin down.
  {
    sim::EventLoop loop;
    dataplane::Network net(rules, loop);
    controller::Controller ctrl(rules, net);
    // Pick the most-overlapped entry (deepest chain level).
    flow::EntryId victim = 0;
    int best_chain = -1;
    for (const auto& e : rules.entries()) {
      const int chain = static_cast<int>(
          rules.table(e.switch_id, e.table_id).overlapping_above(e).size());
      if (chain > best_chain && graph.vertex_for(e.id) >= 0) {
        best_chain = chain;
        victim = e.id;
      }
    }
    net.faults().add_fault(victim, dataplane::FaultSpec::Drop());
    std::printf("injected: drop fault on entry %d (switch %d), shadowed by "
                "%d higher-priority rules\n",
                victim, rules.entry(victim).switch_id, best_chain);

    core::FaultLocalizer localizer(snap, ctrl, loop);
    const auto report = localizer.run();
    std::printf("localization: %d rounds, %.2f s, flagged:", report.rounds,
                report.total_time_s);
    for (const auto s : report.flagged_switches) std::printf(" switch %d", s);
    std::printf("\n");
    return report.flagged_switches.size() == 1 &&
                   report.flagged_switches[0] == rules.entry(victim).switch_id
               ? 0
               : 1;
  }
}

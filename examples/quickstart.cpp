// Quickstart: the whole SDNProbe pipeline on a small network, end to end.
//
//   1. Build a topology and synthesize flow rules.
//   2. Construct the rule graph (§V-A) and a minimum legal path cover
//      (§V-B), i.e. the minimum set of test packets.
//   3. Bring up the simulated data plane, inject a faulty flow entry.
//   4. Run fault localization (Algorithm 2) and print the verdict.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// With SDNPROBE_METRICS=out.json in the environment, the run additionally
// writes a telemetry export (per-round localizer spans with wall + simulated
// time, probe/failure counters, MLPC restart stats) to out.json at exit.
// Output is byte-identical with the variable unset.
#include <cstdio>
#include <cstdlib>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "telemetry/metrics.h"
#include "topo/generator.h"

using namespace sdnprobe;

int main() {
  // --- 1. Topology + rules. ---
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = 42;
  const topo::Graph topology = topo::make_rocketfuel_like(tc);

  flow::SynthesizerConfig sc;
  sc.target_entry_count = 1000;
  sc.seed = 42;
  const flow::RuleSet rules = flow::synthesize_ruleset(topology, sc);
  std::printf("network: %d switches, %d links, %zu flow entries\n",
              topology.node_count(), topology.edge_count(),
              rules.entry_count());

  // --- 2. Rule graph + minimum set of test packets. ---
  core::RuleGraph graph(rules);
  std::printf("rule graph: %d testable entries, %zu edges, acyclic=%s\n",
              graph.vertex_count(), graph.edge_count(),
              graph.find_cycle().empty() ? "yes" : "NO");

  const core::AnalysisSnapshot snap(graph);
  const core::Cover cover = core::MlpcSolver().solve(snap);
  std::printf("minimum legal path cover: %zu test packets cover every rule "
              "(vs %d per-rule probes)\n",
              cover.path_count(), graph.vertex_count());

  // --- 3. Data plane with one faulty entry. ---
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);

  util::Rng rng(7);
  const auto faulty = core::choose_faulty_entries(graph, 1, rng);
  // Silently drops matching packets.
  net.faults().add_fault(faulty[0], dataplane::FaultSpec::Drop());
  const flow::SwitchId culprit = rules.entry(faulty[0]).switch_id;
  std::printf("injected: drop fault on entry %d (switch %d)\n", faulty[0],
              culprit);

  // --- 4. Localize. ---
  core::FaultLocalizer localizer(snap, ctrl, loop);
  const core::DetectionReport report = localizer.run();

  std::printf("detection: %d rounds, %zu probes, %.2f simulated seconds\n",
              report.rounds, report.probes_sent, report.total_time_s);
  if (report.flagged_switches.size() == 1 &&
      report.flagged_switches[0] == culprit) {
    std::printf("verdict: switch %d flagged -- exact localization\n", culprit);
  } else {
    std::printf("verdict: flagged %zu switches (expected exactly switch %d)\n",
                report.flagged_switches.size(), culprit);
    return 1;
  }

  // With SDNPROBE_METRICS set, the global registry has been recording the
  // whole run; its JSON export is written to that path at process exit.
  if (telemetry::MetricsRegistry::global().enabled()) {
    std::printf("telemetry: metrics export will be written to %s at exit\n",
                std::getenv("SDNPROBE_METRICS"));
  }
  return 0;
}

// Live policy updates (§VIII-C + Monocle's use case): new flow entries are
// installed while SDNProbe is monitoring. Instead of rebuilding the rule
// graph (the most expensive pre-computation step), the controller applies
// incremental updates and immediately verifies the *new* rules with fresh
// probes.
//
// Build & run:  cmake --build build && ./build/examples/incremental_update
#include <cstdio>
#include <memory>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/probe_round.h"
#include "core/rule_graph.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/timer.h"

using namespace sdnprobe;

int main() {
  topo::GeneratorConfig tc;
  tc.node_count = 14;
  tc.link_count = 24;
  tc.seed = 11;
  const topo::Graph topology = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 3000;
  sc.seed = 12;
  flow::RuleSet rules = flow::synthesize_ruleset(topology, sc);

  util::WallTimer build;
  core::RuleGraph graph(rules);
  std::printf("initial rule graph: %d entries in %.1f ms\n",
              graph.vertex_count(), build.elapsed_millis());

  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);

  // An operator installs a new, more specific route for one flow: a
  // higher-priority rule at the same switch steering a /28-like sub-range.
  const flow::EntryId base_id = graph.entry_of(graph.vertex_count() / 2);
  const flow::FlowEntry& base = rules.entry(base_id);
  flow::FlowEntry update;
  update.switch_id = base.switch_id;
  update.table_id = base.table_id;
  update.priority = base.priority + 1;
  hsa::TernaryString match = base.match;
  for (int b = rules.header_width() - 1; b >= 0; --b) {
    if (match.get(b) == hsa::Trit::kWild) {
      match.set(b, hsa::Trit::kOne);
      break;
    }
  }
  update.match = match;
  update.action = base.action;
  const flow::EntryId new_id = rules.add_entry(update);
  net.install_entry(rules.entry(new_id));  // FlowMod to the data plane

  util::WallTimer incr;
  const core::VertexId v = graph.apply_entry_added(new_id);
  std::printf("incremental graph update: %.2f ms (vs full rebuild above)\n",
              incr.elapsed_millis());
  if (v < 0) {
    std::printf("new rule is dead on arrival (fully shadowed) - nothing to "
                "verify\n");
    return 1;
  }

  // Verify just the new rule: a probe along a legal path through it. The
  // analysis snapshot is taken *after* the incremental update — snapshots
  // are immutable and never see later graph mutations.
  const core::AnalysisSnapshot snap(graph);
  core::ProbeEngine engine(snap);
  util::Rng rng(3);
  const auto probe = engine.make_probe({v}, rng);
  if (!probe.has_value()) {
    std::printf("could not synthesize a probe for the new rule\n");
    return 1;
  }
  // One probe round: test point at the probe's terminal, inject, collect.
  core::ProbeRound round(rules, ctrl, loop);
  const bool verified = !round.send({*probe}).outcomes.front().failed();
  round.teardown();
  std::printf("new rule %d on switch %d: %s\n", new_id, update.switch_id,
              verified ? "verified working" : "NOT verified");

  // The monitoring cover picks up the new rule on its next regeneration.
  const core::Cover cover = core::MlpcSolver().solve(snap);
  bool covered = false;
  for (const auto& p : cover.paths) {
    for (const auto pv : p.vertices) covered |= (pv == v);
  }
  std::printf("next full cover: %zu probes, new rule covered: %s\n",
              cover.path_count(), covered ? "yes" : "NO");

  // --- Removal + epoch swap (the monitor::Monitor lifecycle, §12) ---
  //
  // Continuous monitoring freezes each churn batch into an immutable epoch:
  // AnalysisSnapshot::adopt copies the working graph, so analyses holding
  // the old epoch keep a consistent view while the graph mutates on.
  const auto epoch1 = std::make_shared<const core::AnalysisSnapshot>(
      core::AnalysisSnapshot::adopt(graph));
  const int active_before = epoch1->vertex_count();

  // The operator rolls the route back: remove the specific rule again. The
  // base rule it partially shadowed regains its full input space without
  // any rebuild — and keeps its vertex slot, so probe paths stay valid.
  net.remove_entry(update.switch_id, update.table_id, new_id);
  rules.remove_entry(new_id);
  util::WallTimer removal;
  const auto touched = graph.apply_entry_removed(new_id);
  std::printf("incremental removal: %.2f ms, %zu vertices touched\n",
              removal.elapsed_millis(), touched.size());

  const auto epoch2 = std::make_shared<const core::AnalysisSnapshot>(
      core::AnalysisSnapshot::adopt(graph));
  const bool base_restored =
      epoch2->vertex_for(base_id) >= 0 &&
      epoch2->in_space(epoch2->vertex_for(base_id)) == rules.input_space(base_id);
  std::printf("epoch 1 still sees %d vertices; epoch 2 sees the removal, "
              "base rule restored: %s\n",
              active_before, base_restored ? "yes" : "NO");
  std::printf("removed rule active in epoch 2: %s\n",
              epoch2->vertex_for(new_id) >= 0 ? "yes (BUG)" : "no");
  return verified && covered && base_restored ? 0 : 1;
}

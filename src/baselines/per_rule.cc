#include "baselines/per_rule.h"

#include <optional>
#include <set>

#include "core/probe_round.h"

namespace sdnprobe::baselines {

PerRuleTest::PerRuleTest(const core::AnalysisSnapshot& snapshot,
                         controller::Controller& ctrl, sim::EventLoop& loop)
    : snapshot_(&snapshot),
      graph_(&snapshot.graph()),
      ctrl_(&ctrl),
      loop_(&loop),
      engine_(snapshot),
      rng_(1) {}

core::DetectionReport PerRuleTest::run() {
  core::DetectionReport report;
  const double t0 = loop_->now();

  // Build the per-rule tested paths: previous hop -> rule -> next hop where
  // such legal neighbors exist.
  std::vector<core::Probe> probes;
  std::vector<std::vector<flow::SwitchId>> blame;
  std::vector<flow::SwitchId> target_switch;  // switch owning the tested rule
  const auto w_switch_count = [this] {
    return graph_->rules().switch_count();
  };
  for (core::VertexId v = 0; v < graph_->vertex_count(); ++v) {
    if (!graph_->is_active(v)) continue;
    std::vector<core::VertexId> path;
    for (const core::VertexId p : graph_->predecessors(v)) {
      if (graph_->is_legal_path({p, v})) {
        path.push_back(p);
        break;
      }
    }
    path.push_back(v);
    {
      // Extend to a legal next hop, capturing there.
      std::vector<core::VertexId> tail = path;
      for (const core::VertexId w : graph_->successors(v)) {
        tail.push_back(w);
        if (graph_->is_legal_path(tail)) break;
        tail.pop_back();
      }
      path = tail;
    }
    auto probe = engine_.make_probe(path, rng_);
    if (!probe.has_value()) continue;
    std::set<flow::SwitchId> sw;
    for (const flow::EntryId e : probe->entries) {
      sw.insert(graph_->rules().entry(e).switch_id);
    }
    blame.emplace_back(sw.begin(), sw.end());
    target_switch.push_back(
        graph_->rules().entry(graph_->entry_of(v)).switch_id);
    probes.push_back(std::move(*probe));
  }

  report.probes_sent = probes.size();
  core::ProbeRound round(snapshot_->rules(), *ctrl_, *loop_);
  const std::vector<core::ProbeOutcome> outcomes = round.send(probes).outcomes;
  round.teardown();
  report.rounds = 1;

  // Blame the three switches of every failing probe, then exonerate a
  // switch when every probe *targeting its own rules* passed (the
  // Monocle-style use of passing results). With a single fault this usually
  // narrows blame to the faulty switch; with several faults a benign
  // switch's own probe often traverses a faulty neighbor and fails, so the
  // benign switch stays blamed — §VII's growing false positives.
  std::vector<std::uint8_t> own_probe_failed(
      static_cast<std::size_t>(w_switch_count()), 0);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (outcomes[i].failed()) {
      own_probe_failed[static_cast<std::size_t>(target_switch[i])] = 1;
    }
  }
  std::set<flow::SwitchId> flagged;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (!outcomes[i].failed()) continue;
    for (const flow::SwitchId s : blame[i]) {
      if (own_probe_failed[static_cast<std::size_t>(s)]) flagged.insert(s);
    }
  }
  report.flagged_switches.assign(flagged.begin(), flagged.end());
  report.total_time_s = loop_->now() - t0;
  report.detection_time_s =
      report.flagged_switches.empty() ? 0.0 : report.total_time_s;
  return report;
}

}  // namespace sdnprobe::baselines

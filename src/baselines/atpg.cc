#include "baselines/atpg.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "core/legal_paths.h"
#include "core/probe_round.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sdnprobe::baselines {
namespace {

// Rounds of additional-path probing during localization.
constexpr int kLocalizationRounds = 3;
// Alternative paths tried per isolated failing path and round.
constexpr int kAlternativesPerPath = 3;

}  // namespace

Atpg::Atpg(const core::AnalysisSnapshot& snapshot,
           controller::Controller& ctrl, sim::EventLoop& loop,
           AtpgConfig config)
    : snapshot_(&snapshot),
      graph_(&snapshot.graph()),
      ctrl_(&ctrl),
      loop_(&loop),
      config_(config),
      engine_(snapshot),
      rng_(1) {}

void Atpg::generate() {
  if (generated_) return;
  generated_ = true;
  util::WallTimer timer;
  candidates_ =
      core::enumerate_legal_paths(*graph_, config_.max_candidate_paths, &rng_);

  // Greedy minimum set cover with lazy gain re-evaluation (the standard
  // submodular-greedy speedup): pop the candidate with the largest stale
  // gain, recompute, and re-queue unless it still tops the heap.
  const int V = graph_->vertex_count();
  std::vector<std::uint8_t> covered(static_cast<std::size_t>(V), 0);
  int remaining = V;
  std::priority_queue<std::pair<int, std::size_t>> heap;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    heap.emplace(static_cast<int>(candidates_[i].size()), i);
  }
  while (remaining > 0 && !heap.empty()) {
    const auto [stale_gain, i] = heap.top();
    heap.pop();
    int gain = 0;
    for (const core::VertexId v : candidates_[i]) {
      gain += covered[static_cast<std::size_t>(v)] ? 0 : 1;
    }
    if (gain == 0) continue;
    if (!heap.empty() && gain < heap.top().first) {
      heap.emplace(gain, i);
      continue;
    }
    for (const core::VertexId v : candidates_[i]) {
      if (!covered[static_cast<std::size_t>(v)]) {
        covered[static_cast<std::size_t>(v)] = 1;
        --remaining;
      }
    }
    selected_.push_back(candidates_[i]);
  }
  // Vertices missed by the (possibly truncated) pool get singleton paths, so
  // coverage invariants match SDNProbe's.
  for (core::VertexId v = 0; v < V; ++v) {
    if (!covered[static_cast<std::size_t>(v)] && graph_->is_active(v)) {
      selected_.push_back({v});
    }
  }
  paths_with_.resize(static_cast<std::size_t>(V));
  for (std::uint32_t i = 0; i < candidates_.size(); ++i) {
    for (const core::VertexId v : candidates_[i]) {
      auto& lst = paths_with_[static_cast<std::size_t>(v)];
      if (lst.size() < 4) lst.push_back(i);  // a few alternatives suffice
    }
  }
  generation_wall_s_ += timer.elapsed_seconds();
}

std::size_t Atpg::probe_count() {
  generate();
  return selected_.size();
}

core::DetectionReport Atpg::run() {
  generate();
  core::DetectionReport report;
  const double t0 = loop_->now();
  core::ProbeRound round(snapshot_->rules(), *ctrl_, *loop_);
  // One send/collect round, torn down before the outcomes are read.
  auto send_round = [&round](const std::vector<core::Probe>& probes) {
    std::vector<core::ProbeOutcome> outcomes = round.send(probes).outcomes;
    round.teardown();
    return outcomes;
  };

  // Round 1: the full greedy cover. Header uniqueness is scoped per round
  // (test points are torn down in between), so reset the pool: otherwise
  // rules with tiny header spaces exhaust across localization rounds and
  // their alternative probes get silently skipped.
  engine_.reset_uniqueness();
  std::vector<core::Probe> probes;
  for (const auto& path : selected_) {
    if (auto p = engine_.make_probe(path, rng_)) probes.push_back(*p);
  }
  report.probes_sent += probes.size();
  const std::vector<core::ProbeOutcome> outcomes = send_round(probes);
  report.rounds = 1;

  // Failing paths as switch sets.
  auto switches_of = [this](const core::Probe& p) {
    std::set<flow::SwitchId> s;
    for (const flow::EntryId e : p.entries) {
      s.insert(graph_->rules().entry(e).switch_id);
    }
    return s;
  };
  std::vector<std::set<flow::SwitchId>> failing_sets;
  std::vector<std::vector<core::VertexId>> failing_paths;
  // Rule-level exoneration evidence: rules exercised by passing / failing
  // probes (ATPG subtracts passing-test results before localizing).
  std::vector<std::uint8_t> rule_suspect(
      static_cast<std::size_t>(graph_->vertex_count()), 0);
  std::vector<std::uint8_t> rule_cleared(
      static_cast<std::size_t>(graph_->vertex_count()), 0);
  auto record_outcome = [&](const core::Probe& p, bool fail) {
    for (const core::VertexId v : p.path) {
      (fail ? rule_suspect : rule_cleared)[static_cast<std::size_t>(v)] = 1;
    }
  };
  for (std::size_t i = 0; i < probes.size(); ++i) {
    record_outcome(probes[i], outcomes[i].failed());
    if (outcomes[i].failed()) {
      failing_sets.push_back(switches_of(probes[i]));
      failing_paths.push_back(probes[i].path);
    }
  }

  // Localization: each failing path needs *other* tested paths through its
  // rules so that intersections can pin the fault. ATPG recomputes and sends
  // these additional host-to-host test packets — the expensive step §VIII
  // attributes to it. Per failing path, we pick for every on-path rule an
  // alternative candidate path through that rule.
  std::size_t localized_upto = 0;  // failing paths already expanded
  for (int round = 0;
       round < kLocalizationRounds &&
       localized_upto < failing_paths.size();
       ++round) {
    util::WallTimer gen_timer;
    // ATPG recomputes its test packets for every localization wave — §VIII
    // identifies this regeneration as its delay bottleneck ("ATPG needs to
    // compute additional test packets for fault localization"). Perform a
    // real regeneration pass; its host time is reported in
    // generation_wall_s, and its RNG draws shape the headers below.
    {
      const auto scratch = core::enumerate_legal_paths(
          *graph_, config_.max_candidate_paths, &rng_);
      (void)scratch;
    }
    engine_.reset_uniqueness();  // previous round's test points are gone
    std::vector<core::Probe> extra;
    std::set<std::uint32_t> chosen;
    const std::size_t end = failing_paths.size();
    for (std::size_t i = localized_upto; i < end; ++i) {
      for (const core::VertexId v : failing_paths[i]) {
        int found = 0;
        for (const std::uint32_t ci :
             paths_with_[static_cast<std::size_t>(v)]) {
          if (found >= kAlternativesPerPath) break;
          if (candidates_[ci] == failing_paths[i]) continue;
          if (!chosen.insert(ci).second) continue;
          if (auto p = engine_.make_probe(candidates_[ci], rng_)) {
            extra.push_back(*p);
            ++found;
          }
        }
      }
    }
    localized_upto = end;
    generation_wall_s_ += gen_timer.elapsed_seconds();
    if (extra.empty()) break;
    report.probes_sent += extra.size();
    const std::vector<core::ProbeOutcome> extra_outcomes = send_round(extra);
    ++report.rounds;
    for (std::size_t i = 0; i < extra.size(); ++i) {
      record_outcome(extra[i], extra_outcomes[i].failed());
      if (extra_outcomes[i].failed()) {
        failing_sets.push_back(switches_of(extra[i]));
        failing_paths.push_back(extra[i].path);
      }
    }
  }

  // A switch can only be faulty if it owns at least one rule that is on a
  // failing path and on no passing path.
  std::set<flow::SwitchId> suspect_switches;
  for (core::VertexId v = 0; v < graph_->vertex_count(); ++v) {
    if (rule_suspect[static_cast<std::size_t>(v)] &&
        !rule_cleared[static_cast<std::size_t>(v)]) {
      suspect_switches.insert(
          graph_->rules().entry(graph_->entry_of(v)).switch_id);
    }
  }

  // Intersection-based verdict (§VII): a switch is flagged when it lies on
  // the intersection of two failing paths; a failing path that intersects no
  // other failing path cannot be narrowed, so all its switches are flagged.
  // Single-fault consistency first: if some switches are common to EVERY
  // failing path, they alone explain the evidence (Table I's "1 faulty
  // node" row).
  if (!failing_sets.empty()) {
    std::set<flow::SwitchId> common = failing_sets.front();
    for (std::size_t i = 1; i < failing_sets.size() && !common.empty(); ++i) {
      std::set<flow::SwitchId> keep;
      for (const flow::SwitchId s : common) {
        if (failing_sets[i].count(s)) keep.insert(s);
      }
      common = std::move(keep);
    }
    if (!common.empty()) {
      core::DetectionReport out;
      for (const flow::SwitchId s : common) {
        if (suspect_switches.count(s)) out.flagged_switches.push_back(s);
      }
      if (out.flagged_switches.empty()) {
        out.flagged_switches.assign(common.begin(), common.end());
      }
      out.probes_sent = report.probes_sent;
      out.rounds = report.rounds;
      out.total_time_s = loop_->now() - t0;
      out.detection_time_s = out.total_time_s;
      out.generation_wall_s = std::exchange(generation_wall_s_, 0.0);
      return out;
    }
  }
  std::set<flow::SwitchId> flagged;
  std::vector<bool> intersected(failing_sets.size(), false);
  for (std::size_t i = 0; i < failing_sets.size(); ++i) {
    for (std::size_t j = i + 1; j < failing_sets.size(); ++j) {
      bool any = false;
      for (const flow::SwitchId s : failing_sets[i]) {
        if (failing_sets[j].count(s)) {
          flagged.insert(s);
          any = true;
        }
      }
      if (any) {
        intersected[i] = true;
        intersected[j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < failing_sets.size(); ++i) {
    if (!intersected[i]) {
      flagged.insert(failing_sets[i].begin(), failing_sets[i].end());
    }
  }

  for (const flow::SwitchId s : flagged) {
    if (suspect_switches.count(s)) report.flagged_switches.push_back(s);
  }
  report.total_time_s = loop_->now() - t0;
  report.detection_time_s = report.flagged_switches.empty()
                                ? 0.0
                                : report.total_time_s;
  report.generation_wall_s = std::exchange(generation_wall_s_, 0.0);
  return report;
}

}  // namespace sdnprobe::baselines

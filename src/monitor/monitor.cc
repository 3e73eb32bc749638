#include "monitor/monitor.h"

#include <algorithm>
#include <utility>

#include "core/mlpc.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace sdnprobe::monitor {
namespace {

// Disjoint RNG stream spaces under one master seed (util::Rng::derive):
// epoch e's full-cover build draws stream 2e, its incremental repair draws
// 2e+1, and monitoring round r draws kRoundStreamBase + r. Keeping the
// spaces disjoint is what makes a monitor run a pure function of (seed,
// churn sequence), independent of host speed.
constexpr std::uint64_t kRoundStreamBase = 1ull << 32;

std::uint64_t cover_stream(std::uint64_t epoch) { return 2 * epoch; }
std::uint64_t repair_stream(std::uint64_t epoch) { return 2 * epoch + 1; }

}  // namespace

// Telemetry handles, resolved once at construction (DESIGN.md §10 pattern:
// hot paths record through cached pointers, never by name lookup).
struct Monitor::Instruments {
  telemetry::Counter& churn_batches;
  telemetry::Counter& entries_installed;
  telemetry::Counter& entries_removed;
  telemetry::Counter& probes_kept;
  telemetry::Counter& probes_regenerated;
  telemetry::Counter& probes_retired;
  telemetry::Counter& rounds_run;
  telemetry::Counter& verify_runs;
  telemetry::Counter& verify_violations;
  telemetry::Gauge& epoch;
  telemetry::Gauge& probe_count;
  telemetry::Gauge& coverage_fraction;
  telemetry::Gauge& uptime_wall_s;
  telemetry::Gauge& uptime_sim_s;
  telemetry::Gauge& invariant_violations;

  Instruments()
      : churn_batches(registry().counter("monitor.churn_batches")),
        entries_installed(registry().counter("monitor.entries_installed")),
        entries_removed(registry().counter("monitor.entries_removed")),
        probes_kept(registry().counter("monitor.probes_kept")),
        probes_regenerated(registry().counter("monitor.probes_regenerated")),
        probes_retired(registry().counter("monitor.probes_retired")),
        rounds_run(registry().counter("monitor.rounds_run")),
        verify_runs(registry().counter("monitor.verify_runs")),
        verify_violations(registry().counter("monitor.verify_violations")),
        epoch(registry().gauge("monitor.epoch")),
        probe_count(registry().gauge("monitor.probe_count")),
        coverage_fraction(registry().gauge("monitor.coverage_fraction")),
        uptime_wall_s(registry().gauge("monitor.uptime_wall_s")),
        uptime_sim_s(registry().gauge("monitor.uptime_sim_s")),
        invariant_violations(
            registry().gauge("monitor.invariant_violations")) {}

  static telemetry::MetricsRegistry& registry() {
    return telemetry::MetricsRegistry::global();
  }
};

Monitor::Monitor(flow::RuleSet& rules, controller::Controller& ctrl,
                 sim::EventLoop& loop, MonitorConfig config)
    : rules_(&rules),
      ctrl_(&ctrl),
      loop_(&loop),
      config_(config),
      graph_(rules),
      tm_(std::make_unique<Instruments>()) {
  // Incremental repair maintains one fixed cover across epochs; the
  // randomized variant re-draws covers per restart and is incompatible.
  SDNPROBE_CHECK(!config_.common.randomized);
  if (config_.verify_invariants) {
    verifier_ = std::make_unique<analysis::Verifier>(config_.invariants);
  }
  start_sim_s_ = loop.now();
  swap_epoch();  // epoch 1: the as-built network
  run_verify(nullptr);
  regenerate_probes();
  publish_gauges();
}

Monitor::~Monitor() = default;

void Monitor::swap_epoch() {
  // Copy the working graph into an owning snapshot. The copy is the price
  // of never blocking readers: the working graph keeps mutating while any
  // number of episode/analysis readers hold previous epochs.
  auto next = std::make_shared<const core::AnalysisSnapshot>(
      core::AnalysisSnapshot::adopt(graph_));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  ++epoch_;
}

std::shared_ptr<const core::AnalysisSnapshot> Monitor::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void Monitor::drain_churn() {
  if (pending_.empty()) return;
  telemetry::TraceSpan span("monitor.churn_batch",
                            [this] { return loop_->now(); });
  util::WallTimer timer;
  dataplane::Network& net = ctrl_->network();
  std::vector<core::VertexId> touched;
  std::uint64_t installs = 0;
  std::uint64_t removals = 0;
  last_churn_ = ChurnLog{};
  for (ChurnOp& op : pending_) {
    if (op.kind == ChurnOp::Kind::kInstall) {
      const flow::EntryId id = rules_->add_entry(std::move(op.entry));
      net.install_entry(rules_->entry(id));
      graph_.apply_entry_added(id, &touched);
      last_churn_.applied.push_back(
          AppliedOp{ChurnOp::Kind::kInstall, id, rules_->entry(id)});
      ++installs;
    } else {
      const flow::EntryId id = op.remove_id;
      if (id < 0 || static_cast<std::size_t>(id) >= rules_->entry_count() ||
          rules_->is_removed(id)) {
        continue;  // unknown or double removal: ignore, like a real NBI
      }
      const flow::FlowEntry& e = rules_->entry(id);
      last_churn_.applied.push_back(AppliedOp{ChurnOp::Kind::kRemove, id, e});
      net.remove_entry(e.switch_id, e.table_id, e.id);
      rules_->remove_entry(id);
      const std::vector<core::VertexId> t = graph_.apply_entry_removed(id);
      touched.insert(touched.end(), t.begin(), t.end());
      ++removals;
    }
  }
  pending_.clear();
  swap_epoch();
  last_churn_.epoch = epoch_;
  if (config_.incremental_repair) {
    repair_probes(touched);
  } else {
    regenerate_probes();
    churn_stats_.probes_regenerated += probes_.size();
    tm_->probes_regenerated.add(probes_.size());
  }
  const double repair_ms = timer.elapsed_millis();
  churn_stats_.batches += 1;
  churn_stats_.installs += installs;
  churn_stats_.removals += removals;
  churn_stats_.last_repair_ms = repair_ms;
  churn_stats_.total_repair_ms += repair_ms;
  tm_->churn_batches.add(1);
  tm_->entries_installed.add(installs);
  tm_->entries_removed.add(removals);
  span.annotate("installs", static_cast<double>(installs));
  span.annotate("removals", static_cast<double>(removals));
  span.annotate("touched", static_cast<double>(touched.size()));
  run_verify(&touched);
  publish_gauges();
}

void Monitor::run_verify(const std::vector<core::VertexId>* touched) {
  if (!verifier_) return;
  telemetry::TraceSpan span("monitor.verify", [this] { return loop_->now(); });
  util::WallTimer timer;
  last_verify_ = touched != nullptr ? verifier_->apply_delta(*snapshot_,
                                                             *touched)
                                    : verifier_->verify(*snapshot_);
  const double verify_ms = timer.elapsed_millis();
  const analysis::VerifyStats& st = last_verify_.stats();
  const auto violations = static_cast<std::uint64_t>(
      last_verify_.count(analysis::Severity::kError));
  verify_summary_.runs += 1;
  if (touched == nullptr) verify_summary_.full_runs += 1;
  verify_summary_.classes_verified += st.classes_verified;
  verify_summary_.classes_reused += st.classes_reused;
  verify_summary_.violations += violations;
  verify_summary_.last_verify_ms = verify_ms;
  verify_summary_.total_verify_ms += verify_ms;
  tm_->verify_runs.add(1);
  tm_->verify_violations.add(violations);
  span.annotate("classes_verified", static_cast<double>(st.classes_verified));
  span.annotate("classes_reused", static_cast<double>(st.classes_reused));
  span.annotate("violations", static_cast<double>(violations));
}

void Monitor::regenerate_probes() {
  const core::AnalysisSnapshot& snap = *snapshot_;
  core::MlpcConfig mc;
  mc.common = config_.common;
  const core::Cover cover = core::MlpcSolver(mc).solve(snap);
  core::ProbeEngine engine(snap);
  util::Rng rng(util::Rng::derive(config_.common.seed, cover_stream(epoch_)));
  probes_ = engine.make_probes(cover, rng);
  for (core::Probe& p : probes_) p.probe_id = next_probe_id_++;
}

void Monitor::repair_probes(const std::vector<core::VertexId>& touched) {
  const core::AnalysisSnapshot& snap = *snapshot_;
  // A probe survives the batch iff its path avoids every touched vertex
  // and every vertex is still active: untouched vertices kept their input
  // spaces verbatim (slot stability), so the probe's header still
  // traverses and its terminal test entry still exact-matches.
  std::vector<std::uint8_t> dirty(
      static_cast<std::size_t>(snap.vertex_count()), 0);
  for (const core::VertexId v : touched) {
    if (v >= 0 && static_cast<std::size_t>(v) < dirty.size()) {
      dirty[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::vector<core::Probe> kept;
  kept.reserve(probes_.size());
  for (core::Probe& p : probes_) {
    bool survives = true;
    for (const core::VertexId v : p.path) {
      if (static_cast<std::size_t>(v) >= dirty.size() ||
          dirty[static_cast<std::size_t>(v)] || !snap.is_active(v)) {
        survives = false;
        break;
      }
    }
    if (survives) kept.push_back(std::move(p));
  }
  churn_stats_.probes_kept += kept.size();
  tm_->probes_kept.add(kept.size());
  probes_ = std::move(kept);

  // Cover the remainder with fresh paths and headers. Serial and
  // index-ordered: the affected region is small by construction, and a
  // fixed order keeps the repaired set a pure function of the churn.
  core::ProbeEngine engine(snap);
  for (const core::Probe& p : probes_) engine.note_used(p.header);
  util::Rng rng(util::Rng::derive(config_.common.seed, repair_stream(epoch_)));
  std::uint64_t built = 0;
  for (const std::vector<core::VertexId>& path : uncovered_paths()) {
    std::optional<core::Probe> p = engine.make_probe(path, rng);
    if (!p) continue;  // header space exhausted; vertex stays uncovered
    p->probe_id = next_probe_id_++;
    probes_.push_back(std::move(*p));
    ++built;
  }
  churn_stats_.probes_regenerated += built;
  tm_->probes_regenerated.add(built);
}

std::vector<std::vector<core::VertexId>> Monitor::uncovered_paths() const {
  const core::AnalysisSnapshot& snap = *snapshot_;
  const int vertex_count = snap.vertex_count();
  std::vector<std::uint8_t> covered(static_cast<std::size_t>(vertex_count), 0);
  for (const core::Probe& p : probes_) {
    for (const core::VertexId v : p.path) {
      covered[static_cast<std::size_t>(v)] = 1;
    }
  }
  // Greedy forward path forming over the uncovered active vertices, lowest
  // vertex first, extending along the first legal uncovered successor.
  // Not minimal like MLPC — repair trades a few extra probes for O(region)
  // cost; the periodic full rebuild (or a quiet moment) can re-minimize.
  std::vector<std::vector<core::VertexId>> paths;
  for (core::VertexId v = 0; v < vertex_count; ++v) {
    if (covered[static_cast<std::size_t>(v)] || !snap.is_active(v)) continue;
    std::vector<core::VertexId> path{v};
    covered[static_cast<std::size_t>(v)] = 1;
    hsa::HeaderSpace hs = snap.out_space(v);
    core::VertexId cur = v;
    bool extended = true;
    while (extended) {
      extended = false;
      for (const core::VertexId w : snap.successors(cur)) {
        if (covered[static_cast<std::size_t>(w)] || !snap.is_active(w)) {
          continue;
        }
        hsa::HeaderSpace next = snap.propagate(hs, w);
        if (next.is_empty()) continue;
        path.push_back(w);
        covered[static_cast<std::size_t>(w)] = 1;
        hs = std::move(next);
        cur = w;
        extended = true;
        break;
      }
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

void Monitor::run_round() {
  if (paused_) return;  // a repair episode owns the dataplane handlers
  drain_churn();
  telemetry::TraceSpan span("monitor.round", [this] { return loop_->now(); });
  const double start_s = loop_->now();
  core::LocalizerConfig lc = config_.localizer;
  lc.common.randomized = false;
  lc.common.seed =
      util::Rng::derive(config_.common.seed, kRoundStreamBase + report_.rounds);
  // Hold this epoch's snapshot for the whole episode: a drain_churn()
  // issued concurrently (e.g. from a user callback) swaps the member
  // pointer but cannot pull the graph out from under the localizer.
  const std::shared_ptr<const core::AnalysisSnapshot> snap = snapshot();
  core::FaultLocalizer loc(*snap, *ctrl_, *loop_, lc);
  loc.set_cover_probes(probes_);
  const core::DetectionReport rep = loc.run();
  last_detection_ = rep;

  MonitorRound rec;
  rec.index = report_.rounds;
  rec.epoch = epoch_;
  rec.start_s = start_s;
  rec.end_s = loop_->now();
  rec.probes_sent = rep.probes_sent;
  rec.localizer_rounds = rep.rounds;
  for (const core::RoundRecord& r : rep.round_log) rec.failures += r.failures;
  for (const flow::SwitchId sw : rep.flagged_switches) {
    if (flagged_.insert(sw).second) rec.newly_flagged.push_back(sw);
  }
  report_.rounds += 1;
  report_.probes_sent += rep.probes_sent;
  report_.failures += rec.failures;
  report_.flagged_switches.assign(flagged_.begin(), flagged_.end());
  span.annotate("epoch", static_cast<double>(rec.epoch));
  span.annotate("probes_sent", static_cast<double>(rec.probes_sent));
  span.annotate("failures", static_cast<double>(rec.failures));
  span.annotate("newly_flagged", static_cast<double>(rec.newly_flagged.size()));
  const bool flagged_new = !rec.newly_flagged.empty();
  report_.round_log.push_back(std::move(rec));
  if (flagged_new) retire_flagged_probes();
  tm_->rounds_run.add(1);
  publish_gauges();
  if (round_hook_) round_hook_(report_.round_log.back());
}

std::vector<ChurnOp> Monitor::invert(const ChurnLog& log) {
  // Walk the applied batch backwards: each install becomes a removal of the
  // id the monitor assigned, each removal re-installs the saved entry copy
  // (with a fresh id — tombstoned ids are never reused, so the snapshot is
  // restored up to entry renumbering; canonical_fingerprint ignores ids).
  std::vector<ChurnOp> out;
  out.reserve(log.applied.size());
  for (auto it = log.applied.rbegin(); it != log.applied.rend(); ++it) {
    if (it->kind == ChurnOp::Kind::kInstall) {
      out.push_back(ChurnOp::remove(it->id));
    } else {
      flow::FlowEntry e = it->entry;
      e.id = -1;
      out.push_back(ChurnOp::install(std::move(e)));
    }
  }
  return out;
}

void Monitor::mark_repaired(flow::SwitchId sw) {
  if (flagged_.erase(sw) == 0) return;
  report_.flagged_switches.assign(flagged_.begin(), flagged_.end());
  // Re-cover the vertices whose probes were retired while the switch was
  // flagged; with the flag down, repair_probes' greedy pass rebuilds paths
  // through it (no vertices were touched, so every kept probe survives).
  repair_probes({});
  retire_flagged_probes();
  publish_gauges();
}

void Monitor::retire_flagged_probes() {
  // A probe through a flagged switch fails every subsequent round and
  // re-localizes what the operator already knows; retire it until the
  // switch is repaired (coverage_fraction reports the honest dip).
  std::vector<core::Probe> keep;
  keep.reserve(probes_.size());
  std::uint64_t retired = 0;
  for (core::Probe& p : probes_) {
    bool hits_flagged = false;
    for (const flow::EntryId e : p.entries) {
      if (flagged_.count(rules_->entry(e).switch_id) != 0) {
        hits_flagged = true;
        break;
      }
    }
    if (hits_flagged) {
      ++retired;
    } else {
      keep.push_back(std::move(p));
    }
  }
  probes_ = std::move(keep);
  churn_stats_.probes_retired += retired;
  tm_->probes_retired.add(retired);
}

void Monitor::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  schedule_next_round();
}

void Monitor::stop() {
  running_ = false;
  ++generation_;
}

void Monitor::schedule_next_round() {
  // The next round is armed only after run_round() returns, so episodes
  // never nest: however long localization takes (slicing under failures
  // extends an episode), the monitor falls behind rather than reentering.
  const std::uint64_t gen = generation_;
  loop_->schedule_in(config_.round_period_s, [this, gen] {
    if (!running_ || gen != generation_) return;
    run_round();
    schedule_next_round();
  });
}

MonitorStatus Monitor::status() const {
  const std::shared_ptr<const core::AnalysisSnapshot> snap = snapshot();
  MonitorStatus st;
  st.epoch = epoch_;
  st.rounds_run = report_.rounds;
  st.probe_count = probes_.size();
  const int vertex_count = snap->vertex_count();
  std::vector<std::uint8_t> covered(static_cast<std::size_t>(vertex_count), 0);
  for (const core::Probe& p : probes_) {
    for (const core::VertexId v : p.path) {
      if (static_cast<std::size_t>(v) < covered.size()) {
        covered[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  for (core::VertexId v = 0; v < vertex_count; ++v) {
    if (!snap->is_active(v)) continue;
    ++st.active_vertices;
    if (covered[static_cast<std::size_t>(v)]) ++st.covered_vertices;
  }
  st.coverage_fraction =
      st.active_vertices == 0
          ? 1.0
          : static_cast<double>(st.covered_vertices) /
                static_cast<double>(st.active_vertices);
  st.uptime_wall_s = uptime_.elapsed_seconds();
  st.uptime_sim_s = loop_->now() - start_sim_s_;
  st.pending_churn = pending_.size();
  st.flagged_switches = report_.flagged_switches;
  st.invariant_violations = static_cast<std::uint64_t>(
      last_verify_.count(analysis::Severity::kError));
  return st;
}

void Monitor::publish_gauges() {
  if (!Instruments::registry().enabled()) return;
  const MonitorStatus st = status();
  tm_->epoch.set(static_cast<double>(st.epoch));
  tm_->probe_count.set(static_cast<double>(st.probe_count));
  tm_->coverage_fraction.set(st.coverage_fraction);
  tm_->uptime_wall_s.set(st.uptime_wall_s);
  tm_->uptime_sim_s.set(st.uptime_sim_s);
  tm_->invariant_violations.set(static_cast<double>(st.invariant_violations));
}

}  // namespace sdnprobe::monitor

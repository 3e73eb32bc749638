#include "repair/engine.h"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/linter.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace sdnprobe::repair {
namespace {

// Confirm episodes draw from their own stream space, disjoint from the
// monitor's cover (2e), repair (2e+1), and round (1<<32 + r) streams.
constexpr std::uint64_t kConfirmStreamBase = 3ull << 32;

// Localizer rounds one confirm episode may run.
constexpr int kConfirmMaxRounds = 6;
// Targeted confirm probes per episode.
constexpr std::size_t kMaxConfirmProbes = 48;
// Backward/forward extension caps for targeted confirm paths.
constexpr std::size_t kConfirmPathPrepend = 2;
constexpr std::size_t kConfirmPathLength = 8;
// Installs tried per heal before giving up.
constexpr std::size_t kMaxPatchAttempts = 3;
// Epoch-fence re-verifications before a heal gives up safely.
constexpr int kMaxFenceRetries = 4;

constexpr std::array<Strategy, 3> kAllStrategies = {
    Strategy::kReinstallFromIntent,
    Strategy::kShadowTighten,
    Strategy::kRerouteAround,
};

std::set<std::string> error_strings(const analysis::DiagnosticReport& r) {
  std::set<std::string> out;
  for (const analysis::Diagnostic& d : r.diagnostics()) {
    if (d.severity == analysis::Severity::kError) out.insert(d.to_string());
  }
  return out;
}

// True when `candidate` has no error diagnostic absent from `baseline` —
// the patch may inherit the live network's pre-existing violations but must
// not add one.
bool no_new_errors(const std::set<std::string>& baseline,
                   const std::set<std::string>& candidate) {
  for (const std::string& e : candidate) {
    if (baseline.count(e) == 0) return false;
  }
  return true;
}

}  // namespace

struct RepairEngine::Instruments {
  telemetry::Counter& heals_attempted;
  telemetry::Counter& heals_succeeded;
  telemetry::Counter& heals_failed;
  telemetry::Counter& quarantines;
  telemetry::Counter& patches_proposed;
  telemetry::Counter& patches_verified;
  telemetry::Counter& patches_installed;
  telemetry::Counter& patches_rolled_back;
  telemetry::Counter& verify_reruns;
  telemetry::Histogram& time_to_heal_s;
  // Cumulative confirmed heals per strategy, mirrored into gauges.
  std::array<telemetry::Gauge*, kAllStrategies.size()> strategy_success{};
  std::array<std::uint64_t, kAllStrategies.size()> strategy_counts{};

  Instruments()
      : heals_attempted(registry().counter("repair.heals_attempted")),
        heals_succeeded(registry().counter("repair.heals_succeeded")),
        heals_failed(registry().counter("repair.heals_failed")),
        quarantines(registry().counter("repair.quarantines")),
        patches_proposed(registry().counter("repair.patches_proposed")),
        patches_verified(registry().counter("repair.patches_verified")),
        patches_installed(registry().counter("repair.patches_installed")),
        patches_rolled_back(registry().counter("repair.patches_rolled_back")),
        verify_reruns(registry().counter("repair.verify_reruns")),
        time_to_heal_s(registry().histogram("repair.time_to_heal_s")) {
    for (std::size_t i = 0; i < kAllStrategies.size(); ++i) {
      strategy_success[i] = &registry().gauge(
          std::string("repair.success.") + strategy_name(kAllStrategies[i]));
    }
  }

  void record_success(Strategy s) {
    const auto i = static_cast<std::size_t>(s);
    if (i < kAllStrategies.size()) {
      strategy_success[i]->set(static_cast<double>(++strategy_counts[i]));
    }
  }

  static telemetry::MetricsRegistry& registry() {
    return telemetry::MetricsRegistry::global();
  }
};

std::string RepairOutcome::to_string() const {
  std::ostringstream os;
  os << "switch " << target << " ["
     << fault_class_name(diagnosis.fault_class) << "]: ";
  if (healed) {
    os << (quarantined ? "quarantined" : "healed") << " via "
       << strategy_name(strategy) << " in " << time_to_heal_s << "s";
  } else {
    os << "unhealed";
  }
  os << " (" << patches_proposed << " proposed, " << attempts.size()
     << " attempted, " << verify_reruns << " fence reruns)";
  return os.str();
}

RepairEngine::RepairEngine(monitor::Monitor& mon, controller::Controller& ctrl,
                           sim::EventLoop& loop, RepairConfig config)
    : mon_(&mon),
      ctrl_(&ctrl),
      loop_(&loop),
      config_(std::move(config)),
      tm_(std::make_unique<Instruments>()) {}

RepairEngine::~RepairEngine() = default;

bool RepairEngine::dry_run_verify(const Patch& patch) const {
  // Scratch world: a private copy of the live RuleSet with its own rule
  // graph and verifier. The patch is applied here first; the live network
  // stays untouched whatever the verdict. A fresh world per candidate (not
  // revert-in-place) because re-adding a removed entry would assign a new
  // EntryId and the next candidate's ops reference the original ids.
  flow::RuleSet scratch = ctrl_->rules();
  core::RuleGraph graph(scratch);
  analysis::Verifier verifier(config_.invariants);
  std::set<std::string> baseline;
  {
    const core::AnalysisSnapshot before(graph);
    baseline = error_strings(verifier.verify(before));
  }
  std::vector<core::VertexId> touched;
  for (const monitor::ChurnOp& op : patch.ops) {
    if (op.kind == monitor::ChurnOp::Kind::kInstall) {
      flow::FlowEntry e = op.entry;
      e.id = -1;
      const flow::EntryId id = scratch.add_entry(std::move(e));
      graph.apply_entry_added(id, &touched);
    } else {
      const flow::EntryId id = op.remove_id;
      if (id < 0 || static_cast<std::size_t>(id) >= scratch.entry_count() ||
          scratch.is_removed(id)) {
        continue;
      }
      scratch.remove_entry(id);
      const std::vector<core::VertexId> t = graph.apply_entry_removed(id);
      touched.insert(touched.end(), t.begin(), t.end());
    }
  }
  // Same incremental path the monitor's own epoch swap verifies through:
  // apply_delta over the patch's touched region, bit-identical to a full
  // re-verify by the verifier's contract.
  const core::AnalysisSnapshot after(graph);
  return no_new_errors(baseline,
                       error_strings(verifier.apply_delta(after, touched)));
}

bool RepairEngine::lint_gate(const Patch& patch) const {
  analysis::LintConfig lc;
  lc.strict = false;           // gate by comparison, not by throwing
  lc.edge_witness_budget = 0;  // invariants already verified; skip witnesses
  analysis::LintReport base;
  (void)analysis::build_checked_snapshot(ctrl_->rules(), lc, &base);
  flow::RuleSet scratch = ctrl_->rules();
  for (const monitor::ChurnOp& op : patch.ops) {
    if (op.kind == monitor::ChurnOp::Kind::kInstall) {
      flow::FlowEntry e = op.entry;
      e.id = -1;
      scratch.add_entry(std::move(e));
    } else if (op.remove_id >= 0 &&
               static_cast<std::size_t>(op.remove_id) <
                   scratch.entry_count() &&
               !scratch.is_removed(op.remove_id)) {
      scratch.remove_entry(op.remove_id);
    }
  }
  analysis::LintReport cand;
  (void)analysis::build_checked_snapshot(scratch, lc, &cand);
  return no_new_errors(error_strings(base), error_strings(cand));
}

std::vector<core::Probe> RepairEngine::confirm_probes(
    const core::AnalysisSnapshot& snap, const monitor::ChurnLog& log,
    std::uint64_t seed_stream) const {
  // Seed vertices: every entry the batch installed. For a reinstall these
  // are the fresh copies, for a shadow the twins, for a reroute the
  // covering/relay entries — exactly the forwarding the patch claims fixed.
  std::vector<core::VertexId> seeds;
  for (const monitor::AppliedOp& ap : log.applied) {
    if (ap.kind != monitor::ChurnOp::Kind::kInstall) continue;
    const core::VertexId v = snap.vertex_for(ap.id);
    if (v >= 0 && snap.is_active(v)) seeds.push_back(v);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  core::ProbeEngineConfig ec;
  ec.common.threads = 1;
  core::ProbeEngine engine(snap, ec, nullptr);
  util::Rng rng(util::Rng::derive(config_.common.seed, seed_stream));
  std::vector<core::Probe> probes;
  std::set<std::pair<flow::EntryId, flow::EntryId>> spans;
  std::uint64_t next_id = 1;
  for (const core::VertexId seed : seeds) {
    if (probes.size() >= kMaxConfirmProbes) break;
    std::vector<core::VertexId> path{seed};
    // Prepend upstream context so the probe exercises the handoff *into*
    // the patched entry, not just the entry in isolation.
    for (std::size_t i = 0; i < kConfirmPathPrepend; ++i) {
      bool prepended = false;
      for (const core::VertexId u : snap.predecessors(path.front())) {
        if (!snap.is_active(u)) continue;
        std::vector<core::VertexId> cand;
        cand.reserve(path.size() + 1);
        cand.push_back(u);
        cand.insert(cand.end(), path.begin(), path.end());
        if (!snap.is_legal_path(cand)) continue;
        if (snap.path_input_space(cand).is_empty()) continue;
        path = std::move(cand);
        prepended = true;
        break;
      }
      if (!prepended) break;
    }
    // Extend downstream greedily while some header still traverses.
    hsa::HeaderSpace hs = snap.path_output_space(path);
    while (path.size() < kConfirmPathLength) {
      bool extended = false;
      for (const core::VertexId w : snap.successors(path.back())) {
        if (!snap.is_active(w)) continue;
        hsa::HeaderSpace next = snap.propagate(hs, w);
        if (next.is_empty()) continue;
        path.push_back(w);
        hs = std::move(next);
        extended = true;
        break;
      }
      if (!extended) break;
    }
    std::optional<core::Probe> p = engine.make_probe(path, rng);
    if (!p.has_value()) continue;
    if (!spans.insert({p->entries.front(), p->entries.back()}).second) {
      continue;
    }
    p->probe_id = next_id++;
    probes.push_back(std::move(*p));
  }
  return probes;
}

bool RepairEngine::confirm(const monitor::ChurnLog& log) {
  const std::shared_ptr<const core::AnalysisSnapshot> snap = mon_->snapshot();
  const std::uint64_t stream = kConfirmStreamBase + confirm_episodes_++;
  std::vector<core::Probe> probes = confirm_probes(*snap, log, stream);
  if (probes.empty()) return false;  // nothing provable => not confirmed
  core::LocalizerConfig lc = config_.confirm;
  lc.common.randomized = false;
  lc.common.threads = 1;  // targeted episode; determinism over parallelism
  lc.common.seed = util::Rng::derive(config_.common.seed, stream);
  lc.max_rounds = kConfirmMaxRounds;
  lc.quiet_full_rounds_to_stop = 1;
  core::FaultLocalizer loc(*snap, *ctrl_, *loop_, lc);
  loc.set_cover_probes(std::move(probes));
  const core::DetectionReport rep = loc.run();
  std::size_t failures = 0;
  for (const core::RoundRecord& r : rep.round_log) failures += r.failures;
  return rep.flagged_switches.empty() && failures == 0;
}

RepairOutcome RepairEngine::heal(flow::SwitchId flagged) {
  return heal(flagged, mon_->last_detection());
}

RepairOutcome RepairEngine::heal(flow::SwitchId flagged,
                                 const core::DetectionReport& report) {
  telemetry::TraceSpan span("repair.heal", [this] { return loop_->now(); });
  span.annotate("switch", static_cast<double>(flagged));
  const double t0 = loop_->now();
  // Confirm episodes advance the sim clock; pausing keeps scheduled
  // monitor rounds from firing mid-heal and clobbering the dataplane
  // handlers the confirm localizer installs.
  const bool was_paused = mon_->paused();
  mon_->set_paused(true);
  tm_->heals_attempted.add(1);

  RepairOutcome out;
  out.target = flagged;
  {
    const std::shared_ptr<const core::AnalysisSnapshot> snap = mon_->snapshot();
    out.diagnosis = Diagnoser().diagnose(*snap, report, flagged);
  }

  // Verify under an epoch fence: candidates are synthesized and dry-run
  // against one epoch; if churn lands before install (the test hook models
  // the worst-case interleaving), everything re-runs against the new world
  // — a patch verified against a stale snapshot never reaches the wire.
  std::vector<Patch> survivors;
  std::vector<PatchAttempt> rejected;
  int fence = 0;
  for (;;) {
    mon_->drain_churn();
    const std::uint64_t epoch0 = mon_->epoch();
    std::vector<Patch> candidates;
    {
      const std::shared_ptr<const core::AnalysisSnapshot> snap =
          mon_->snapshot();
      candidates = PatchSynthesizer(*snap).synthesize(out.diagnosis);
    }
    out.patches_proposed = candidates.size();
    survivors.clear();
    rejected.clear();
    for (Patch& p : candidates) {
      if (dry_run_verify(p)) {
        survivors.push_back(std::move(p));
      } else {
        PatchAttempt at;
        at.strategy = p.strategy;
        at.blast_radius = p.blast_radius;
        at.description = p.description;
        rejected.push_back(std::move(at));
      }
    }
    if (config_.after_verify_hook) config_.after_verify_hook();
    if (mon_->pending_churn() == 0 && mon_->epoch() == epoch0) break;
    ++out.verify_reruns;
    tm_->verify_reruns.add(1);
    if (++fence > kMaxFenceRetries) {
      survivors.clear();  // world will not hold still; give up safely
      break;
    }
  }
  tm_->patches_proposed.add(out.patches_proposed);
  out.attempts = std::move(rejected);

  // Install survivors safest-first; the synthesizer's strategy preference
  // breaks blast-radius ties via stable sort.
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const Patch& a, const Patch& b) {
                     return a.blast_radius < b.blast_radius;
                   });
  std::size_t installs_tried = 0;
  for (Patch& p : survivors) {
    if (installs_tried >= kMaxPatchAttempts) break;
    PatchAttempt at;
    at.strategy = p.strategy;
    at.blast_radius = p.blast_radius;
    at.verified = true;
    at.description = p.description;
    tm_->patches_verified.add(1);
    if (!lint_gate(p)) {
      out.attempts.push_back(std::move(at));
      continue;
    }
    ++installs_tried;
    for (monitor::ChurnOp& op : p.ops) mon_->enqueue(std::move(op));
    mon_->drain_churn();
    at.installed = true;
    tm_->patches_installed.add(1);
    const monitor::ChurnLog log = mon_->last_churn();
    if (confirm(log)) {
      at.confirmed = true;
      out.attempts.push_back(std::move(at));
      out.healed = true;
      out.quarantined = p.quarantines;
      out.strategy = p.strategy;
      // A quarantine leaves the flag up: traffic is safe, the switch is
      // still sick and awaits hands.
      if (!p.quarantines) mon_->mark_repaired(flagged);
      break;
    }
    // Failed confirmation: apply the exact inverse batch and move on.
    for (monitor::ChurnOp& op : monitor::Monitor::invert(log)) {
      mon_->enqueue(std::move(op));
    }
    mon_->drain_churn();
    at.rolled_back = true;
    tm_->patches_rolled_back.add(1);
    out.attempts.push_back(std::move(at));
  }

  out.time_to_heal_s = loop_->now() - t0;
  if (out.healed) {
    tm_->heals_succeeded.add(1);
    if (out.quarantined) tm_->quarantines.add(1);
    tm_->time_to_heal_s.record(out.time_to_heal_s);
    tm_->record_success(out.strategy);
  } else {
    tm_->heals_failed.add(1);
  }
  span.annotate("healed", out.healed ? 1.0 : 0.0);
  span.annotate("attempts", static_cast<double>(out.attempts.size()));
  span.annotate("verify_reruns", static_cast<double>(out.verify_reruns));
  mon_->set_paused(was_paused);
  return out;
}

AutoRepair::AutoRepair(monitor::Monitor& mon, controller::Controller& ctrl,
                       sim::EventLoop& loop, RepairConfig config)
    : mon_(&mon), engine_(mon, ctrl, loop, std::move(config)) {
  mon_->set_round_hook([this](const monitor::MonitorRound& round) {
    for (const flow::SwitchId sw : round.newly_flagged) {
      outcomes_.push_back(engine_.heal(sw));
    }
  });
}

std::size_t AutoRepair::heals() const {
  std::size_t n = 0;
  for (const RepairOutcome& o : outcomes_) n += o.healed ? 1 : 0;
  return n;
}

std::size_t AutoRepair::quarantines() const {
  std::size_t n = 0;
  for (const RepairOutcome& o : outcomes_) n += o.quarantined ? 1 : 0;
  return n;
}

}  // namespace sdnprobe::repair

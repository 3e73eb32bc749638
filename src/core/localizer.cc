#include "core/localizer.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sdnprobe::core {
namespace {

// A switch is flagged when one of its rules fails as a singleton path with
// suspicion above this level (paper default 3, §VIII).
constexpr int kSuspicionThreshold = 3;
// Accumulated-suspicion flagging for intermittent faults (§VI: "once the
// suspicion level of a switch exceeds a certain detection threshold, the
// switch is considered faulty"): when a failing path's *strictly*
// most-suspected rule crosses this level, its switch is flagged even if the
// fault's active windows are too short for slicing to reach a singleton.
// The strict-argmax guard keeps false positives at zero: a benign co-path
// rule is separated from the real culprit as soon as one sliced half passes
// while the other fails.
constexpr int kStrongSuspicionThreshold = 9;
// How many rounds a sliced (localization) probe keeps being retested after
// it last failed. An intermittent fault's active window is often shorter
// than one slicing descent; lingering probes are already in flight when the
// next active window opens, so each window advances the localization by
// another level instead of restarting from the top.
constexpr int kLingerRounds = 6;
// Random delay in [0, kRoundJitterS) before each round. Without jitter a
// fixed round cadence can phase-lock with an intermittent fault's period
// and sample only its inactive windows, hiding it forever.
constexpr double kRoundJitterS = 0.15;

// DetectionReport / RoundRecord remain the algorithmic record; telemetry is
// the cross-run aggregate view and must never influence control flow.
struct LocalizerInstruments {
  telemetry::Counter& probes_sent;
  telemetry::Counter& probe_failures;
  telemetry::Counter& suspicion_updates;
  telemetry::Counter& switches_flagged;
  telemetry::Counter& retries_sent;
  telemetry::Counter& retry_recoveries;
  telemetry::Counter& probe_timeouts;

  static LocalizerInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static LocalizerInstruments i{
        reg.counter("localizer.probes_sent"),
        reg.counter("localizer.probe_failures"),
        reg.counter("localizer.suspicion_updates"),
        reg.counter("localizer.switches_flagged"),
        reg.counter("localizer.retries_sent"),
        reg.counter("localizer.retry_recoveries"),
        reg.counter("localizer.probe_timeouts"),
    };
    return i;
  }
};

}  // namespace

const char* deviation_kind_name(DeviationKind k) {
  switch (k) {
    case DeviationKind::kMissing:
      return "missing";
    case DeviationKind::kModifiedReturn:
      return "modified-return";
    case DeviationKind::kMisrouted:
      return "misrouted";
    case DeviationKind::kModifiedDelivery:
      return "modified-delivery";
  }
  return "unknown";
}

bool DetectionReport::flagged(flow::SwitchId s) const {
  return std::binary_search(flagged_switches.begin(), flagged_switches.end(),
                            s);
}

FaultLocalizer::FaultLocalizer(const AnalysisSnapshot& snapshot,
                               controller::Controller& ctrl,
                               sim::EventLoop& loop, LocalizerConfig config)
    : snapshot_(&snapshot),
      graph_(&snapshot.graph()),
      loop_(&loop),
      config_(config),
      engine_(snapshot),
      rng_(config.common.seed),
      round_(snapshot.rules(), ctrl, loop, config.confirm_retries,
             config.adaptive_timeout) {}

std::vector<Probe> FaultLocalizer::generate_full_cover() const {
  telemetry::TraceSpan span("localizer.generate_full_cover",
                            [this] { return loop_->now(); });
  util::WallTimer timer;
  if (!config_.common.randomized) {
    if (!fixed_ready_) {
      MlpcConfig mc;
      mc.common.randomized = false;
      const Cover cover = MlpcSolver(mc).solve(*snapshot_);
      fixed_probes_ = engine_.make_probes(cover, rng_, nullptr);
      fixed_ready_ = true;
      generation_wall_s_ += timer.elapsed_seconds();
    }
    // Reuse identical headers; only the correlation ids are refreshed by
    // make_probe-free cloning below (headers must stay fixed so that a
    // targeting fault outside the chosen headers stays a blind spot, as the
    // paper's deterministic variant does).
    return fixed_probes_;
  }
  // Randomized mode: a cover staged by initial_probe_count() is consumed
  // first so querying the count does not advance the RNG stream relative to
  // a run that never queried it.
  if (staged_.has_value()) {
    std::vector<Probe> probes = std::move(*staged_);
    staged_.reset();
    return probes;
  }
  MlpcConfig mc;
  mc.common.randomized = true;
  mc.common.seed = rng_.next();
  const Cover cover = MlpcSolver(mc).solve(*snapshot_);
  engine_.reset_uniqueness();
  if (config_.profile && !config_.profile->empty()) {
    period_profile_ = config_.profile->period_snapshot(rng_);
    have_period_ = true;
  }
  std::vector<Probe> probes =
      engine_.make_probes(cover, rng_, active_profile());
  generation_wall_s_ += timer.elapsed_seconds();
  return probes;
}

void FaultLocalizer::set_cover_probes(std::vector<Probe> probes) {
  SDNPROBE_CHECK(!config_.common.randomized)
      << "external cover probes require deterministic mode";
  fixed_probes_ = std::move(probes);
  fixed_ready_ = true;
}

std::size_t FaultLocalizer::initial_probe_count() const {
  if (config_.common.randomized) {
    if (!staged_.has_value()) staged_ = generate_full_cover();
    return staged_->size();
  }
  if (!fixed_ready_) generate_full_cover();
  return fixed_probes_.size();
}

DetectionReport FaultLocalizer::run(RoundCallback callback) {
  telemetry::TraceSpan run_span("localizer.run",
                                [this] { return loop_->now(); });
  DetectionReport report;
  const double t0 = loop_->now();

  // The probes tested next round and, per probe, how many more rounds a
  // localization probe is retested after it last failed (0: cover probe).
  std::vector<Probe> pending = generate_full_cover();
  std::vector<int> linger(pending.size(), 0);
  bool pending_is_full_cover = true;
  int consecutive_quiet_full = 0;
  round_.restart_ids();
  // Paths already sliced this detection run (avoid duplicate children).
  std::set<std::pair<flow::EntryId, flow::EntryId>> sliced;
  // Per-span deviation evidence, accumulated across rounds (latest failing
  // observation wins; a later clean pass of the same span retracts it).
  std::map<std::pair<flow::EntryId, flow::EntryId>, ProbeEvidence>
      evidence_by_span;

  for (int round = 1; round <= config_.max_rounds; ++round) {
    RoundRecord rec;
    rec.round = round;
    rec.start_s = loop_->now();
    if (pending.empty()) break;
    telemetry::TraceSpan round_span("localizer.round",
                                    [this] { return loop_->now(); });
    round_span.annotate("round", static_cast<double>(round));

    loop_->run_until(loop_->now() + rng_.next_double() * kRoundJitterS);

    // Header uniqueness is scoped to the concurrently installed test points:
    // restart the pool from this round's headers so sliced-children headers
    // are free to re-land on the same traffic-period cube as their parent.
    engine_.reset_uniqueness();
    for (const Probe& p : pending) engine_.note_used(p.header);

    const RoundResult sent = round_.send(pending);
    report.probes_sent += pending.size();
    LocalizerInstruments::get().probes_sent.add(pending.size());
    rec.retries = sent.retries;
    report.retries_sent += sent.retries;
    LocalizerInstruments::get().retries_sent.add(sent.retries);

    // --- Evaluate (Algorithm 2 lines 5-16). ---
    // Failing probes stay in the tested set (line 14) and multi-rule
    // failures are additionally sliced (line 10). Probes whose path touches
    // an already-flagged switch are "explained" -- the switch is awaiting
    // manual inspection -- and retire from testing, which is what lets the
    // scheme quiesce under persistent faults.
    std::vector<Probe> next;
    std::vector<int> next_linger;
    sliced.clear();  // spans queued for the *next* round (dedup within it)
    auto queue_probe = [&](Probe p, int rounds) {
      const std::pair<flow::EntryId, flow::EntryId> span{p.entries.front(),
                                                         p.entries.back()};
      if (sliced.insert(span).second) {
        next.push_back(std::move(p));
        next_linger.push_back(rounds);
      }
    };
    std::size_t failures = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Probe& probe = pending[i];
      const ProbeOutcome& o = sent.outcomes[i];
      if (!o.failed()) {
        // End-to-end confirmation for every rule on the path; a previously
        // recorded deviation for this exact span is thereby retracted.
        for (const flow::EntryId e : probe.entries) {
          report.cleared_entries[e] = round;
        }
        evidence_by_span.erase({probe.entries.front(), probe.entries.back()});
        if (o.retried) {
          // Retry confirmed a clean path: the initial miss was channel loss.
          ++rec.recovered;
          ++report.retry_recoveries;
          LocalizerInstruments::get().retry_recoveries.add();
        }
        // Localization probes linger so they are already in flight when an
        // intermittent fault's next active window opens.
        if (linger[i] > 1) queue_probe(std::move(probe), linger[i] - 1);
        continue;
      }
      if (!o.returned) LocalizerInstruments::get().probe_timeouts.add();
      bool explained = false;
      for (const flow::EntryId e : probe.entries) {
        if (flagged_.count(graph_->rules().entry(e).switch_id)) {
          explained = true;
          break;
        }
      }
      if (explained) continue;
      ++failures;
      LocalizerInstruments::get().probe_failures.add();
      for (const flow::EntryId e : probe.entries) ++suspicion_[e];
      LocalizerInstruments::get().suspicion_updates.add(
          probe.entries.size());
      {
        ProbeEvidence ev;
        ev.probe_id = o.probe_id;
        ev.round = round;
        ev.expected_path = probe.entries;
        if (o.returned) {
          ev.deviation = DeviationKind::kModifiedReturn;
          ev.observed_switch = o.returned_from;
          ev.observed_header = o.returned_header;
        } else if (o.delivered_sw >= 0) {
          // Intact iff the delivered header matches the probe header pushed
          // through some prefix of the expected path's set fields — then
          // the packet was merely steered out the wrong port (misroute);
          // any other header means something rewrote it (modify).
          hsa::TernaryString h = probe.header;
          bool intact = h == o.delivered_header;
          for (const flow::EntryId e : probe.entries) {
            if (intact) break;
            h = h.transform(graph_->rules().entry(e).set_field);
            intact = h == o.delivered_header;
          }
          ev.deviation = intact ? DeviationKind::kMisrouted
                                : DeviationKind::kModifiedDelivery;
          ev.observed_switch = o.delivered_sw;
          ev.observed_header = o.delivered_header;
        } else {
          ev.deviation = DeviationKind::kMissing;
        }
        evidence_by_span[{probe.entries.front(),
                          probe.entries.back()}] = std::move(ev);
      }
      // Accumulated-suspicion flagging (intermittent faults): the strictly
      // most-suspected rule on this failing path crossing the strong
      // threshold identifies its switch.
      if (probe.entries.size() > 1) {
        flow::EntryId top = -1;
        int top_s = -1;
        bool unique = false;
        for (const flow::EntryId e : probe.entries) {
          const int s = suspicion_[e];
          if (s > top_s) {
            top_s = s;
            top = e;
            unique = true;
          } else if (s == top_s) {
            unique = false;
          }
        }
        if (unique && top_s > kStrongSuspicionThreshold) {
          const flow::SwitchId sw = graph_->rules().entry(top).switch_id;
          if (!flagged_.count(sw)) {
            flagged_.insert(sw);
            rec.newly_flagged.push_back(sw);
            report.detection_time_s = loop_->now() - t0;
            LocalizerInstruments::get().switches_flagged.add();
          }
          report.flag_culprits.emplace(sw, top);
          continue;  // path explained by the new flag
        }
      }
      if (probe.entries.size() > 1) {
        // slice_path: two halves join the next round alongside the parent.
        const auto& verts = probe.path;
        const std::size_t mid = verts.size() / 2;
        const std::vector<VertexId> left(
            verts.begin(), verts.begin() + static_cast<std::ptrdiff_t>(mid));
        const std::vector<VertexId> right(
            verts.begin() + static_cast<std::ptrdiff_t>(mid), verts.end());
        for (const auto& half : {left, right}) {
          auto p = engine_.make_probe(half, rng_, active_profile());
          if (p.has_value()) queue_probe(std::move(*p), kLingerRounds);
        }
        queue_probe(std::move(probe), kLingerRounds);
      } else {
        const flow::EntryId e = probe.entries.front();
        const flow::SwitchId sw = graph_->rules().entry(e).switch_id;
        if (suspicion_[e] > kSuspicionThreshold) {
          if (!flagged_.count(sw)) {
            LocalizerInstruments::get().switches_flagged.add();
          }
          flagged_.insert(sw);
          rec.newly_flagged.push_back(sw);
          report.flag_culprits.emplace(sw, e);
          report.detection_time_s = loop_->now() - t0;
        } else {
          // Keep retesting the singleton.
          queue_probe(std::move(probe), kLingerRounds);
        }
      }
    }

    round_.teardown();

    rec.end_s = loop_->now();
    rec.probes = pending.size();
    rec.failures = failures;
    round_span.annotate("probes", static_cast<double>(rec.probes));
    round_span.annotate("failures", static_cast<double>(rec.failures));
    round_span.annotate("newly_flagged",
                        static_cast<double>(rec.newly_flagged.size()));
    report.round_log.push_back(rec);
    report.rounds = round;

    if (pending_is_full_cover && failures == 0) {
      ++consecutive_quiet_full;
    } else if (failures > 0) {
      consecutive_quiet_full = 0;
    }

    report.flagged_switches.assign(flagged_.begin(), flagged_.end());
    report.total_time_s = loop_->now() - t0;
    if (callback && callback(report)) break;
    if (consecutive_quiet_full >= config_.quiet_full_rounds_to_stop) break;

    if (next.empty()) {
      // Algorithm 2 line 16: restart the full set.
      pending = generate_full_cover();
      linger.assign(pending.size(), 0);
      pending_is_full_cover = true;
      sliced.clear();
    } else {
      pending = std::move(next);
      linger = std::move(next_linger);
      pending_is_full_cover = false;
    }
  }

  report.flagged_switches.assign(flagged_.begin(), flagged_.end());
  report.total_time_s = loop_->now() - t0;
  report.generation_wall_s = std::exchange(generation_wall_s_, 0.0);
  // Finalize evidence: span-sorted (map order) for determinism, with
  // last_confirmed computed against the full run's cleared set.
  for (auto& [span, ev] : evidence_by_span) {
    flow::EntryId last = -1;
    for (const flow::EntryId e : ev.expected_path) {
      if (report.cleared_entries.count(e) == 0) break;
      last = e;
    }
    ev.last_confirmed = last;
    report.evidence.push_back(std::move(ev));
  }
  report.suspicion = suspicion_;
  run_span.annotate("rounds", static_cast<double>(report.rounds));
  run_span.annotate("probes_sent", static_cast<double>(report.probes_sent));
  run_span.annotate("flagged",
                    static_cast<double>(report.flagged_switches.size()));
  return report;
}

}  // namespace sdnprobe::core

#include "core/localizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

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
// Confirmation re-send i (1-based) waits kRetryBackoffBaseS * 2^(i-1).
constexpr double kRetryBackoffBaseS = 0.02;
// Adaptive timeouts: kTimeoutRttMultiplier times the observed RTT, floored
// at kTimeoutFloorS.
constexpr double kTimeoutRttMultiplier = 3.0;
constexpr double kTimeoutFloorS = 0.01;

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

// The localizer's probe engine shares its thread count and nothing else.
ProbeEngineConfig engine_config(int threads) {
  ProbeEngineConfig config;
  config.common.threads = threads;
  return config;
}

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
      ctrl_(&ctrl),
      loop_(&loop),
      config_(config),
      pool_(util::ThreadPool::resolve_thread_count(config.common.threads) > 1
                ? std::make_unique<util::ThreadPool>(
                      util::ThreadPool::resolve_thread_count(
                          config.common.threads))
                : nullptr),
      engine_(snapshot, engine_config(config.common.threads), pool_.get()),
      rng_(config.common.seed) {}

void FaultLocalizer::charge_wall_time(double seconds) const {
  if (config_.charge_generation_time && seconds > 0.0) {
    loop_->run_until(loop_->now() + seconds);
  }
}

std::vector<Probe> FaultLocalizer::generate_full_cover() const {
  telemetry::TraceSpan span("localizer.generate_full_cover",
                            [this] { return loop_->now(); });
  util::WallTimer timer;
  if (!config_.common.randomized) {
    if (!fixed_ready_) {
      MlpcConfig mc;
      mc.common.randomized = false;
      mc.common.threads = config_.common.threads;
      const Cover cover = MlpcSolver(mc, pool_.get()).solve(*snapshot_);
      fixed_probes_ = engine_.make_probes(cover, rng_, nullptr);
      fixed_ready_ = true;
      charge_wall_time(timer.elapsed_seconds());
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
  mc.common.threads = config_.common.threads;
  const Cover cover = MlpcSolver(mc, pool_.get()).solve(*snapshot_);
  engine_.reset_uniqueness();
  if (config_.profile && !config_.profile->empty()) {
    period_profile_ = config_.profile->period_snapshot(rng_);
    have_period_ = true;
  }
  std::vector<Probe> probes =
      engine_.make_probes(cover, rng_, active_profile());
  charge_wall_time(timer.elapsed_seconds());
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

double FaultLocalizer::effective_grace() const {
  if (config_.adaptive_timeout && max_rtt_s_ > 0.0) {
    return std::max(kTimeoutFloorS, kTimeoutRttMultiplier * max_rtt_s_);
  }
  return config_.round_grace_s;
}

double FaultLocalizer::probe_timeout(const Probe& p) const {
  if (!config_.adaptive_timeout) return config_.round_grace_s;
  const auto it = span_rtt_s_.find({p.entries.front(), p.entries.back()});
  const double rtt = it != span_rtt_s_.end() ? it->second : max_rtt_s_;
  if (rtt <= 0.0) return config_.round_grace_s;
  return std::max(kTimeoutFloorS, kTimeoutRttMultiplier * rtt);
}

DetectionReport FaultLocalizer::run(RoundCallback callback) {
  telemetry::TraceSpan run_span("localizer.run",
                                [this] { return loop_->now(); });
  DetectionReport report;
  const double t0 = loop_->now();

  struct PendingProbe {
    Probe probe;
    int linger = 0;  // >0: localization probe retested this many more rounds
  };
  auto as_pending = [](std::vector<Probe> probes) {
    std::vector<PendingProbe> out;
    out.reserve(probes.size());
    for (auto& p : probes) out.push_back(PendingProbe{std::move(p), 0});
    return out;
  };
  std::vector<PendingProbe> pending = as_pending(generate_full_cover());
  bool pending_is_full_cover = true;
  int consecutive_quiet_full = 0;
  std::uint64_t next_round_probe_id = 1u << 20;  // round-local correlation ids
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
    for (const PendingProbe& p : pending) engine_.note_used(p.probe.header);

    // --- Install test points (batched FlowMods: one control RTT). ---
    std::vector<ActiveProbe> active;
    active.reserve(pending.size());
    std::unordered_map<std::uint64_t, Pending> by_id;
    for (const PendingProbe& pp : pending) {
      ActiveProbe ap;
      ap.linger = pp.linger;
      ap.probe = pp.probe;
      ap.probe.probe_id = next_round_probe_id++;
      ap.test_point = ctrl_->install_test_point(pp.probe.terminal_entry,
                                                pp.probe.expected_return);
      by_id[ap.probe.probe_id] = Pending{active.size(), 0.0};
      active.push_back(std::move(ap));
    }
    loop_->run_until(loop_->now() + 2.0 * dataplane::kControlLatencyS);

    // --- Inject probes at the paper's rate; collect returns. ---
    ctrl_->set_probe_return_handler(
        [&](std::uint64_t id, flow::SwitchId from, const dataplane::Packet& pk,
            sim::SimTime now) {
          const auto it = by_id.find(id);
          if (it == by_id.end()) return;  // stale return from prior round
          ActiveProbe& ap = active[it->second.index];
          if (ap.returned) return;  // duplicate delivery (channel dup)
          ap.returned = true;
          const double rtt = now - it->second.sent_s;
          if (rtt > 0.0) {
            max_rtt_s_ = std::max(max_rtt_s_, rtt);
            double& span_rtt = span_rtt_s_[{ap.probe.entries.front(),
                                            ap.probe.entries.back()}];
            span_rtt = std::max(span_rtt, rtt);
          }
          const flow::SwitchId expect_sw =
              graph_->rules().entry(ap.probe.terminal_entry).switch_id;
          if (from != expect_sw || !(pk.header == ap.probe.expected_return)) {
            ap.mismatched = true;
            ap.returned_from = from;
            ap.returned_header = pk.header;
          }
        });
    // A probe that leaks out of the network at a host port instead of
    // hitting its test point was misrouted (or its header was corrupted
    // past recognition); record the first such delivery as evidence.
    ctrl_->network().set_host_delivery_handler(
        [&](flow::SwitchId sw, const dataplane::Packet& pk, sim::SimTime) {
          const auto it = by_id.find(pk.probe_id);
          if (it == by_id.end()) return;
          ActiveProbe& ap = active[it->second.index];
          if (ap.delivered_sw >= 0) return;  // keep the first observation
          ap.delivered_sw = sw;
          ap.delivered_header = pk.header;
        });

    const double spacing = kProbeSizeBytes / kProbeRateBytesPerS;
    // The whole round streams through one batched PacketOut: each probe
    // keeps its own paced send time, but the dataplane handles a round in
    // a handful of events instead of one schedule per probe.
    std::vector<dataplane::BatchPacketOut> sends;
    sends.reserve(active.size());
    double t = loop_->now();
    for (ActiveProbe& ap : active) {
      dataplane::Packet pk;
      pk.header = ap.probe.header;
      pk.probe_id = ap.probe.probe_id;
      by_id[ap.probe.probe_id].sent_s = t;
      sends.push_back(
          dataplane::BatchPacketOut{ap.probe.inject_switch, std::move(pk), t});
      t += spacing;
      ++report.probes_sent;
      LocalizerInstruments::get().probes_sent.add();
    }
    ctrl_->send_packets(std::move(sends));
    loop_->run_until(t + effective_grace());

    // --- Confirmation retries (loss tolerance, DESIGN.md §11). ---
    // A probe that did not return may be a victim of channel loss rather
    // than a rule fault; re-send it (fresh correlation id, the stale one
    // stays live so a late original still counts) up to confirm_retries
    // times with exponential backoff before charging suspicion. A probe
    // that returned *modified* is fault evidence and is never retried.
    for (int attempt = 1; attempt <= config_.confirm_retries; ++attempt) {
      if (std::none_of(active.begin(), active.end(),
                       [](const ActiveProbe& ap) { return !ap.returned; })) {
        break;
      }
      // Backoff first: a straggler that arrives during the wait clears its
      // probe and needs no re-send.
      loop_->run_until(loop_->now() +
                       kRetryBackoffBaseS * std::ldexp(1.0, attempt - 1));
      std::vector<std::size_t> missing;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!active[i].returned) missing.push_back(i);
      }
      if (missing.empty()) break;
      double wait = 0.0;
      double rt = loop_->now();
      std::vector<dataplane::BatchPacketOut> retries;
      retries.reserve(missing.size());
      for (const std::size_t i : missing) {
        ActiveProbe& ap = active[i];
        ap.was_retried = true;
        const std::uint64_t retry_id = next_round_probe_id++;
        by_id[retry_id] = Pending{i, rt};
        dataplane::Packet pk;
        pk.header = ap.probe.header;
        pk.probe_id = retry_id;
        retries.push_back(dataplane::BatchPacketOut{ap.probe.inject_switch,
                                                    std::move(pk), rt});
        rt += spacing;
        ++rec.retries;
        ++report.retries_sent;
        LocalizerInstruments::get().retries_sent.add();
        wait = std::max(wait, probe_timeout(ap.probe));
      }
      ctrl_->send_packets(std::move(retries));
      loop_->run_until(rt + wait);
    }
    ctrl_->set_probe_return_handler(nullptr);
    ctrl_->network().set_host_delivery_handler(nullptr);

    // --- Evaluate (Algorithm 2 lines 5-16). ---
    // Failing probes stay in the tested set (line 14) and multi-rule
    // failures are additionally sliced (line 10). Probes whose path touches
    // an already-flagged switch are "explained" -- the switch is awaiting
    // manual inspection -- and retire from testing, which is what lets the
    // scheme quiesce under persistent faults.
    std::vector<PendingProbe> next;
    sliced.clear();  // spans queued for the *next* round (dedup within it)
    auto queue_probe = [&](Probe p, int linger) {
      const std::pair<flow::EntryId, flow::EntryId> span{p.entries.front(),
                                                         p.entries.back()};
      if (sliced.insert(span).second) {
        next.push_back(PendingProbe{std::move(p), linger});
      }
    };
    std::size_t failures = 0;
    for (ActiveProbe& ap : active) {
      const bool failed = !ap.returned || ap.mismatched;
      if (!failed) {
        // End-to-end confirmation for every rule on the path; a previously
        // recorded deviation for this exact span is thereby retracted.
        for (const flow::EntryId e : ap.probe.entries) {
          report.cleared_entries[e] = round;
        }
        evidence_by_span.erase(
            {ap.probe.entries.front(), ap.probe.entries.back()});
        if (ap.was_retried) {
          // Retry confirmed a clean path: the initial miss was channel loss.
          ++rec.recovered;
          ++report.retry_recoveries;
          LocalizerInstruments::get().retry_recoveries.add();
        }
        // Localization probes linger so they are already in flight when an
        // intermittent fault's next active window opens.
        if (ap.linger > 1) queue_probe(ap.probe, ap.linger - 1);
        continue;
      }
      if (!ap.returned) LocalizerInstruments::get().probe_timeouts.add();
      bool explained = false;
      for (const flow::EntryId e : ap.probe.entries) {
        if (flagged_.count(graph_->rules().entry(e).switch_id)) {
          explained = true;
          break;
        }
      }
      if (explained) continue;
      ++failures;
      LocalizerInstruments::get().probe_failures.add();
      for (const flow::EntryId e : ap.probe.entries) ++suspicion_[e];
      LocalizerInstruments::get().suspicion_updates.add(
          ap.probe.entries.size());
      {
        ProbeEvidence ev;
        ev.probe_id = ap.probe.probe_id;
        ev.round = round;
        ev.expected_path = ap.probe.entries;
        if (ap.returned) {
          ev.deviation = DeviationKind::kModifiedReturn;
          ev.observed_switch = ap.returned_from;
          ev.observed_header = ap.returned_header;
        } else if (ap.delivered_sw >= 0) {
          // Intact iff the delivered header matches the probe header pushed
          // through some prefix of the expected path's set fields — then
          // the packet was merely steered out the wrong port (misroute);
          // any other header means something rewrote it (modify).
          hsa::TernaryString h = ap.probe.header;
          bool intact = h == ap.delivered_header;
          for (const flow::EntryId e : ap.probe.entries) {
            if (intact) break;
            h = h.transform(graph_->rules().entry(e).set_field);
            intact = h == ap.delivered_header;
          }
          ev.deviation = intact ? DeviationKind::kMisrouted
                                : DeviationKind::kModifiedDelivery;
          ev.observed_switch = ap.delivered_sw;
          ev.observed_header = ap.delivered_header;
        } else {
          ev.deviation = DeviationKind::kMissing;
        }
        evidence_by_span[{ap.probe.entries.front(),
                          ap.probe.entries.back()}] = std::move(ev);
      }
      // Accumulated-suspicion flagging (intermittent faults): the strictly
      // most-suspected rule on this failing path crossing the strong
      // threshold identifies its switch.
      if (ap.probe.entries.size() > 1) {
        flow::EntryId top = -1;
        int top_s = -1;
        bool unique = false;
        for (const flow::EntryId e : ap.probe.entries) {
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
      if (ap.probe.entries.size() > 1) {
        // slice_path: two halves join the next round alongside the parent.
        const auto& verts = ap.probe.path;
        const std::size_t mid = verts.size() / 2;
        const std::vector<VertexId> left(
            verts.begin(), verts.begin() + static_cast<std::ptrdiff_t>(mid));
        const std::vector<VertexId> right(
            verts.begin() + static_cast<std::ptrdiff_t>(mid), verts.end());
        for (const auto& half : {left, right}) {
          auto p = engine_.make_probe(half, rng_, active_profile());
          if (p.has_value()) queue_probe(std::move(*p), kLingerRounds);
        }
        queue_probe(ap.probe, kLingerRounds);
      } else {
        const flow::EntryId e = ap.probe.entries.front();
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
          queue_probe(ap.probe, kLingerRounds);
        }
      }
    }

    // --- Teardown test points (batched). ---
    for (const ActiveProbe& ap : active) {
      ctrl_->remove_test_point(ap.test_point);
    }
    loop_->run_until(loop_->now() + 2.0 * dataplane::kControlLatencyS);

    rec.end_s = loop_->now();
    rec.probes = active.size();
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
      pending = as_pending(generate_full_cover());
      pending_is_full_cover = true;
      sliced.clear();
    } else {
      pending = std::move(next);
      pending_is_full_cover = false;
    }
  }

  report.flagged_switches.assign(flagged_.begin(), flagged_.end());
  report.total_time_s = loop_->now() - t0;
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

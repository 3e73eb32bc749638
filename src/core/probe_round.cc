#include "core/probe_round.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "telemetry/trace.h"
#include "util/check.h"

namespace sdnprobe::core {
namespace {

// Confirmation re-send i (1-based) waits kRetryBackoffBaseS * 2^(i-1).
constexpr double kRetryBackoffBaseS = 0.02;
// Adaptive timeouts: kTimeoutRttMultiplier times the observed RTT, floored
// at kTimeoutFloorS.
constexpr double kTimeoutRttMultiplier = 3.0;
constexpr double kTimeoutFloorS = 0.01;

}  // namespace

ProbeRound::ProbeRound(const flow::RuleSet& rules,
                       controller::Controller& ctrl, sim::EventLoop& loop,
                       int confirm_retries, bool adaptive_timeout)
    : rules_(&rules),
      ctrl_(&ctrl),
      loop_(&loop),
      confirm_retries_(confirm_retries),
      adaptive_timeout_(adaptive_timeout) {}

double ProbeRound::effective_grace() const {
  if (adaptive_timeout_ && max_rtt_s_ > 0.0) {
    return std::max(kTimeoutFloorS, kTimeoutRttMultiplier * max_rtt_s_);
  }
  return kDefaultRoundGraceS;
}

double ProbeRound::probe_timeout(const Probe& p) const {
  if (!adaptive_timeout_) return kDefaultRoundGraceS;
  const auto it = span_rtt_s_.find({p.entries.front(), p.entries.back()});
  const double rtt = it != span_rtt_s_.end() ? it->second : max_rtt_s_;
  if (rtt <= 0.0) return kDefaultRoundGraceS;
  return std::max(kTimeoutFloorS, kTimeoutRttMultiplier * rtt);
}

RoundResult ProbeRound::send(const std::vector<Probe>& probes) {
  SDNPROBE_CHECK(installed_.empty())
      << "teardown() the previous round before sending the next";
  RoundResult result;
  std::vector<ProbeOutcome>& out = result.outcomes;
  out.resize(probes.size());
  // Every id sent this round (first sends and retries) maps to its probe
  // and its send time (for RTT observation).
  struct Sent {
    std::size_t index = 0;
    double sent_s = 0.0;
  };
  std::unordered_map<std::uint64_t, Sent> by_id;

  // --- Install test points (batched FlowMods: one control RTT). ---
  {
    telemetry::TraceSpan span("probe_round.install");
    std::vector<controller::TestPointRequest> requests;
    requests.reserve(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      out[i].probe_id = next_id_++;
      requests.push_back({probes[i].terminal_entry, probes[i].expected_return});
      by_id[out[i].probe_id] = Sent{i, 0.0};
    }
    installed_ = ctrl_->install_test_points(requests);
    loop_->run_until(loop_->now() + 2.0 * dataplane::kControlLatencyS);
  }

  // --- Collect returns and host deliveries. ---
  ctrl_->set_probe_return_handler(
      [&](std::uint64_t id, flow::SwitchId from, const dataplane::Packet& pk,
          sim::SimTime now) {
        const auto it = by_id.find(id);
        if (it == by_id.end()) return;  // stale return from prior round
        const Probe& p = probes[it->second.index];
        ProbeOutcome& o = out[it->second.index];
        if (o.returned) return;  // duplicate delivery (channel dup)
        o.returned = true;
        const double rtt = now - it->second.sent_s;
        if (rtt > 0.0) {
          max_rtt_s_ = std::max(max_rtt_s_, rtt);
          double& span_rtt =
              span_rtt_s_[{p.entries.front(), p.entries.back()}];
          span_rtt = std::max(span_rtt, rtt);
        }
        if (from != rules_->entry(p.terminal_entry).switch_id ||
            !(pk.header == p.expected_return)) {
          o.mismatched = true;
          o.returned_from = from;
          o.returned_header = pk.header;
        }
      });
  ctrl_->network().set_host_delivery_handler(
      [&](flow::SwitchId sw, const dataplane::Packet& pk, sim::SimTime) {
        const auto it = by_id.find(pk.probe_id);
        if (it == by_id.end()) return;
        ProbeOutcome& o = out[it->second.index];
        if (o.delivered_sw >= 0) return;  // keep the first observation
        o.delivered_sw = sw;
        o.delivered_header = pk.header;
      });

  // --- Inject at the paper's rate. ---
  // The whole round is handed over in one call; each probe keeps its own
  // paced send time and is one PacketOut at that time.
  const double spacing = kProbeSizeBytes / kProbeRateBytesPerS;
  std::vector<dataplane::BatchPacketOut> sends;
  sends.reserve(probes.size());
  double t = loop_->now();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    dataplane::Packet pk;
    pk.header = probes[i].header;
    pk.probe_id = out[i].probe_id;
    by_id[pk.probe_id].sent_s = t;
    sends.push_back(
        dataplane::BatchPacketOut{probes[i].inject_switch, std::move(pk), t});
    t += spacing;
  }
  ctrl_->send_packets(std::move(sends));
  loop_->run_until(t + effective_grace());

  // --- Confirmation retries (loss tolerance, DESIGN.md §11). ---
  // A probe that did not return may be a victim of channel loss rather
  // than a rule fault; re-send it (fresh correlation id, the stale one
  // stays live so a late original still counts) up to confirm_retries
  // times with exponential backoff. A probe that returned *modified* is
  // fault evidence and is never retried.
  for (int attempt = 1; attempt <= confirm_retries_; ++attempt) {
    if (std::all_of(out.begin(), out.end(),
                    [](const ProbeOutcome& o) { return o.returned; })) {
      break;
    }
    // Backoff first: a straggler that arrives during the wait clears its
    // probe and needs no re-send.
    loop_->run_until(loop_->now() +
                     kRetryBackoffBaseS * std::ldexp(1.0, attempt - 1));
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].returned) missing.push_back(i);
    }
    if (missing.empty()) break;
    double wait = 0.0;
    double rt = loop_->now();
    std::vector<dataplane::BatchPacketOut> retries;
    retries.reserve(missing.size());
    for (const std::size_t i : missing) {
      out[i].retried = true;
      const std::uint64_t retry_id = next_id_++;
      by_id[retry_id] = Sent{i, rt};
      dataplane::Packet pk;
      pk.header = probes[i].header;
      pk.probe_id = retry_id;
      retries.push_back(dataplane::BatchPacketOut{probes[i].inject_switch,
                                                  std::move(pk), rt});
      rt += spacing;
      ++result.retries;
      wait = std::max(wait, probe_timeout(probes[i]));
    }
    ctrl_->send_packets(std::move(retries));
    loop_->run_until(rt + wait);
  }
  ctrl_->set_probe_return_handler(nullptr);
  ctrl_->network().set_host_delivery_handler(nullptr);
  return result;
}

void ProbeRound::teardown() {
  telemetry::TraceSpan span("probe_round.teardown");
  ctrl_->remove_test_points(installed_);
  installed_.clear();
  loop_->run_until(loop_->now() + 2.0 * dataplane::kControlLatencyS);
}

}  // namespace sdnprobe::core

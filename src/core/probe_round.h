// One probe round's data-plane I/O (§VI, §VIII), shared by SDNProbe's
// localizer and both baselines so the three schemes are compared on the
// same round:
//  1. install a §VI test point at every probe's terminal entry and wait one
//     control round trip;
//  2. correlate PacketIn returns and host deliveries by round-local probe id;
//  3. inject every probe through one batched PacketOut, paced at
//     kProbeRateBytesPerS;
//  4. wait the grace period for in-flight returns;
//  5. re-send probes that did not return (confirmation retries, with
//     backoff and optional adaptive timeouts; DESIGN.md §11);
//  6. tear the test points down.
// Steps 1-5 are send(); step 6 is teardown(), kept separate so a caller can
// evaluate the outcomes (and stamp detection times) while the test points
// are still installed. Steps 1 and 6 each hand the controller the whole
// round in one call, and each is a telemetry span (`probe_round.install`,
// `probe_round.teardown`, both including the control round trip).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "core/probe_engine.h"
#include "flow/ruleset.h"
#include "sim/event_loop.h"

namespace sdnprobe::core {

// What one probe did during a round.
struct ProbeOutcome {
  std::uint64_t probe_id = 0;  // correlation id of the first send
  bool returned = false;       // a PacketIn came back (the first one counts)
  bool mismatched = false;     // ... from the wrong switch or header
  bool retried = false;        // at least one confirmation re-send issued
  // Where a mismatched PacketIn came from and what it carried.
  flow::SwitchId returned_from = -1;
  hsa::TernaryString returned_header;
  // The first host delivery seen for this probe: a probe that leaks out of
  // the network instead of hitting its test point was misrouted, or its
  // header was corrupted past recognition.
  flow::SwitchId delivered_sw = -1;
  hsa::TernaryString delivered_header;

  bool failed() const { return !returned || mismatched; }
};

struct RoundResult {
  std::vector<ProbeOutcome> outcomes;  // one per probe, in send order
  std::size_t retries = 0;             // confirmation re-sends issued
};

class ProbeRound {
 public:
  // `rules` resolves each probe's terminal switch. The defaults are the
  // baselines' round: the paper's fixed grace period (kDefaultRoundGraceS)
  // and no retries. `confirm_retries` and `adaptive_timeout` are
  // LocalizerConfig's loss-tolerance knobs (localizer.h).
  ProbeRound(const flow::RuleSet& rules, controller::Controller& ctrl,
             sim::EventLoop& loop, int confirm_retries = 0,
             bool adaptive_timeout = false);

  // Restarts correlation ids at the start of a detection run. Ids keep
  // counting across send() calls and retries otherwise, so a stale return
  // from an earlier round is never miscounted.
  void restart_ids() { next_id_ = kFirstProbeId; }

  // Steps 1-5. The previous round must have been torn down.
  RoundResult send(const std::vector<Probe>& probes);

  // Step 6: removes the last send()'s test points (batched FlowMods: one
  // control round trip).
  void teardown();

 private:
  static constexpr std::uint64_t kFirstProbeId = 1u << 20;

  // Grace period for in-flight returns: kDefaultRoundGraceS, or derived
  // from observed RTTs when adaptive timeouts are on and an RTT exists.
  double effective_grace() const;
  // Retry timeout for one probe: its span's observed RTT if known, else the
  // largest RTT, else kDefaultRoundGraceS.
  double probe_timeout(const Probe& p) const;

  const flow::RuleSet* rules_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  int confirm_retries_;
  bool adaptive_timeout_;
  std::uint64_t next_id_ = kFirstProbeId;
  std::vector<controller::TestPointId> installed_;
  // Observed PacketIn RTTs, kept across rounds: the largest RTT seen so
  // far, plus per-span maxima keyed by (first entry, terminal entry).
  double max_rtt_s_ = 0.0;
  std::map<std::pair<flow::EntryId, flow::EntryId>, double> span_rtt_s_;
};

}  // namespace sdnprobe::core

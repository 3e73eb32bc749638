// Environmental noise: the error-prone channels of the paper's title.
//
// The paper evaluates SDNProbe in an *error-prone environment*: probes and
// control messages can be lost, duplicated, delayed, or reordered by the
// network itself, independently of any rule fault. ChannelModel is the
// seeded source of that noise. It is strictly orthogonal to FaultInjector:
// FaultInjector is the ground-truth registry of *rule* faults (a switch
// executing an entry incorrectly), while ChannelModel perturbs *delivery*
// on links and on the controller channel — losing a probe to channel noise
// must not implicate any switch, which is exactly what the localizer's
// confirmation retries are for (Fig. 9(a)'s FPR story).
//
// Model per transmission (one link hop, or one PacketOut / PacketIn
// control-channel transit):
//   * loss:        the transmission is dropped with probability `loss`;
//   * duplication: a second copy is delivered with probability `dup`;
//   * jitter:      each delivered copy gains an extra latency drawn
//                  uniformly from [0, jitter_s); because later packets can
//                  draw smaller jitter than earlier ones, jitter is also the
//                  reordering mechanism.
// Control-channel delay/loss realism follows the Ryu evaluation study in
// PAPERS.md; FlowMods are deliberately exempt (OpenFlow control channels
// run over TCP, so a lost FlowMod is a retransmit delay, not a silent gap).
//
// Determinism: all draws come from one Rng seeded by ChannelModelConfig's
// seed, consumed in event-loop order (the simulator is single-threaded), so
// a run is replayable from its seed. A zero rate or jitter draws nothing,
// so a channel whose rates are all zero consumes no RNG state and delivers
// every transmission once, on time: noiseless runs are bit-identical to a
// build without the subsystem.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "flow/entry.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace sdnprobe::dataplane {

struct ChannelModelConfig {
  // Per-link-hop probabilities / jitter (switch-to-switch transmissions).
  double link_loss = 0.0;
  double link_dup = 0.0;
  double link_jitter_s = 0.0;
  // Control-channel probabilities / jitter (PacketOut and PacketIn
  // transits; FlowMods are TCP-reliable, see file comment).
  double control_loss = 0.0;
  double control_dup = 0.0;
  double control_jitter_s = 0.0;
  std::uint64_t seed = 0xC11A77E1u;  // "channel"
};

struct ChannelCounters {
  std::uint64_t link_transmissions = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t link_dups = 0;
  std::uint64_t control_transmissions = 0;
  std::uint64_t control_drops = 0;
  std::uint64_t control_dups = 0;
};

class ChannelModel {
 public:
  // What the channel decided for one transmission: deliver `copies` copies
  // (0 = lost), copy i delayed by extra_delay_s[i] on top of the nominal
  // latency.
  struct Delivery {
    int copies = 1;
    double extra_delay_s[2] = {0.0, 0.0};
  };

  explicit ChannelModel(ChannelModelConfig config = {});

  // Fate of one switch-to-switch hop (directional; an override set for
  // either direction of the pair applies).
  Delivery on_link(flow::SwitchId from, flow::SwitchId to);

  // Fate of one control-channel transit (PacketOut or PacketIn).
  Delivery on_control();

  // Per-link loss override (e.g. one flaky cable): replaces `link_loss` for
  // the unordered pair {a, b}.
  void set_link_loss(flow::SwitchId a, flow::SwitchId b, double loss);

  const ChannelCounters& counters() const { return counters_; }
  const ChannelModelConfig& config() const { return config_; }

 private:
  // Draws only for the non-zero rates: with all three zero it returns one
  // on-time copy and leaves the RNG untouched.
  Delivery roll(double loss, double dup, double jitter_s);

  ChannelModelConfig config_;
  util::Rng rng_;
  ChannelCounters counters_;
  // Unordered-pair key (min, max) -> loss probability.
  std::map<std::pair<flow::SwitchId, flow::SwitchId>, double> link_loss_;
  struct Instruments {
    telemetry::Counter* link_drops;
    telemetry::Counter* link_dups;
    telemetry::Counter* control_drops;
    telemetry::Counter* control_dups;
  };
  Instruments tm_;
};

}  // namespace sdnprobe::dataplane

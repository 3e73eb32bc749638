// Fault localization (§VI, Algorithm 2).
//
// Each detection round installs a test point at every tested path's terminal
// entry, injects the probes at the paper's probe rate, and waits for
// PacketIn returns. A probe that fails to return (or returns modified)
// marks its path suspicious: every rule on the path gains suspicion, and the
// path is sliced in two for the next round. A rule whose singleton path
// fails while its suspicion exceeds the threshold identifies its switch as
// faulty (default threshold 3, per §VIII).
//
// Deterministic SDNProbe reuses one minimum cover (and the same probe
// headers) every round. Randomized SDNProbe re-draws the cover with the
// randomized matcher and fresh traffic-biased headers at every full-cover
// restart (§V-C), which is what defeats detouring colluders and targeting
// faults over time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "sim/event_loop.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {

struct LocalizerConfig {
  // Suspicion threshold (paper default 3): a switch is flagged when one of
  // its rules fails as a singleton path with suspicion > threshold.
  int suspicion_threshold = 3;
  // Accumulated-suspicion flagging for intermittent faults (§VI: "once the
  // suspicion level of a switch exceeds a certain detection threshold, the
  // switch is considered faulty"): when a failing path's *strictly*
  // most-suspected rule crosses this level, its switch is flagged even if
  // the fault's active windows are too short for slicing to reach a
  // singleton. The strict-argmax guard keeps false positives at zero: a
  // benign co-path rule is separated from the real culprit as soon as one
  // sliced half passes while the other fails.
  int strong_suspicion_threshold = 9;
  // How many rounds a sliced (localization) probe keeps being retested
  // after it last failed. An intermittent fault's active window is often
  // shorter than one slicing descent; lingering probes are already in
  // flight when the next active window opens, so each window advances the
  // localization by another level instead of restarting from the top.
  int linger_rounds = 6;
  // Probe injection rate (paper: 250 KBytes/s) and probe wire size.
  double probe_rate_bytes_per_s = 250e3;
  int probe_size_bytes = 64;
  // Extra simulated wait after the last probe of a round for in-flight
  // returns (covers worst-case path RTT).
  double round_grace_s = 0.1;
  // Random delay in [0, round_jitter_s) before each round. Without jitter a
  // fixed round cadence can phase-lock with an intermittent fault's period
  // and sample only its inactive windows, hiding it forever.
  double round_jitter_s = 0.15;
  int max_rounds = 64;
  // Shared knobs (core/common_options.h): `randomized` selects Randomized
  // SDNProbe (re-draw cover and headers at every full restart), `seed` feeds
  // the localizer's RNG, `threads` is shared by cover (re)generation and
  // probe construction (0 = hardware_concurrency, 1 = serial; results are
  // identical for any value — the localizer owns one pool and reuses it
  // across rounds).
  CommonOptions common;
  // Optional traffic profile for header randomization (used in randomized
  // mode; ignored otherwise to keep deterministic headers stable).
  const TrafficProfile* profile = nullptr;
  // Stop after this many consecutive failure-free full-cover rounds.
  int quiet_full_rounds_to_stop = 1;
  // Charge measured wall-clock of cover/probe (re)generation to the
  // simulated clock, as the paper's detection delay includes generation.
  bool charge_generation_time = true;
  // MLPC search budget (see MlpcConfig).
  std::size_t mlpc_search_budget = 4096;

  // ---- Loss tolerance (environmental noise, DESIGN.md §11) ----
  //
  // On an error-prone channel a probe can vanish for reasons unrelated to
  // rule faults. With `confirm_retries` > 0 a probe that fails to *return*
  // is re-sent up to that many times (with exponential backoff starting at
  // `retry_backoff_base_s`) before its path is charged with suspicion; a
  // probe that returns *modified* is fault evidence and is never retried.
  // All knobs default off so a zero-noise run is bit-identical to builds
  // that predate the channel model.
  int confirm_retries = 0;
  double retry_backoff_base_s = 0.02;
  // Adaptive timeouts: derive the per-round grace period (and per-probe
  // retry timeouts) from observed PacketIn RTTs — `timeout_rtt_multiplier`
  // times the largest RTT seen so far, floored at `timeout_floor_s` —
  // instead of the fixed `round_grace_s`. Until an RTT has been observed,
  // `round_grace_s` is used.
  bool adaptive_timeout = false;
  double timeout_rtt_multiplier = 3.0;
  double timeout_floor_s = 0.01;
};

struct RoundRecord {
  int round = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t probes = 0;
  std::size_t failures = 0;
  // Confirmation re-sends issued this round and how many of the retried
  // probes ultimately returned clean (loss absorbed, no suspicion charged).
  std::size_t retries = 0;
  std::size_t recovered = 0;
  std::vector<flow::SwitchId> newly_flagged;
};

// How a failing probe's observed behaviour deviated from its expected path
// (per-probe evidence for repair::Diagnoser, DESIGN.md §15).
enum class DeviationKind {
  kMissing,           // never returned anywhere: dropped on path
  kModifiedReturn,    // returned via PacketIn but from the wrong switch or
                      // with the wrong header
  kMisrouted,         // left the network at a host port with an intact
                      // header: forwarded out the wrong port
  kModifiedDelivery,  // left the network with a corrupted header
};

const char* deviation_kind_name(DeviationKind k);

// One failing probe's testimony: what it was supposed to traverse and where
// the observed behaviour diverged. last_confirmed is the deepest entry on
// expected_path up to which *other* (passing) probes confirmed forwarding
// this run, walking from the front; -1 when even the first hop is
// unconfirmed.
struct ProbeEvidence {
  std::uint64_t probe_id = 0;
  int round = 0;  // localizer round that last observed this span failing
  std::vector<flow::EntryId> expected_path;
  DeviationKind deviation = DeviationKind::kMissing;
  flow::EntryId last_confirmed = -1;
  // Where the deviated packet surfaced (PacketIn switch for
  // kModifiedReturn, egress switch for kMisrouted/kModifiedDelivery; -1 for
  // kMissing) and the header it carried there.
  flow::SwitchId observed_switch = -1;
  hsa::TernaryString observed_header;
};

struct DetectionReport {
  std::vector<flow::SwitchId> flagged_switches;  // sorted, unique
  // Simulated time at which the last switch was flagged (0 when none).
  double detection_time_s = 0.0;
  // Total simulated time of the run.
  double total_time_s = 0.0;
  std::size_t probes_sent = 0;
  // Confirmation re-sends across all rounds, and how many initially missing
  // probes a retry confirmed as mere channel loss (returned clean).
  std::size_t retries_sent = 0;
  std::size_t retry_recoveries = 0;
  int rounds = 0;
  std::vector<RoundRecord> round_log;

  // ---- Per-probe evidence (repair support, DESIGN.md §15) ----
  // One entry per distinct failing unexplained span, carrying the latest
  // round's observation; sorted by (first entry, terminal entry) of the
  // span, so the list is deterministic across thread counts.
  std::vector<ProbeEvidence> evidence;
  // Entries whose probes passed cleanly, mapped to the last round that
  // cleared them (forwarding through these was confirmed end-to-end).
  std::map<flow::EntryId, int> cleared_entries;
  // For each flagged switch, the entry whose suspicion triggered the flag —
  // the localizer's best guess at the faulty entry itself.
  std::map<flow::SwitchId, flow::EntryId> flag_culprits;
  // Final per-entry suspicion levels (FaultLocalizer::suspicion_levels()
  // snapshot, so consumers holding only the report can rank suspects).
  std::map<flow::EntryId, int> suspicion;

  // Membership test against flagged_switches: a binary search, so it
  // holds no state and concurrent readers of one report never race. Every
  // writer fills the vector from a std::set, which keeps it sorted.
  bool flagged(flow::SwitchId s) const;
};

class FaultLocalizer {
 public:
  // Called after every round with the report so far; return true to stop
  // early (used by benches that track FNR over time).
  using RoundCallback = std::function<bool(const DetectionReport&)>;

  FaultLocalizer(const AnalysisSnapshot& snapshot,
                 controller::Controller& ctrl, sim::EventLoop& loop,
                 LocalizerConfig config = {});

  // Runs Algorithm 2 until quiescence, max_rounds, or the callback stops it.
  DetectionReport run(RoundCallback callback = nullptr);

  // Per-rule suspicion levels accumulated so far; §VI suggests operators use
  // these to prioritize manual inspection.
  const std::map<flow::EntryId, int>& suspicion_levels() const {
    return suspicion_;
  }

  // Number of probes in the initial full cover (Fig. 8(a) metric). Const:
  // the generated cover is cached (staged, in randomized mode) and consumed
  // verbatim by the first round of run(), so querying the count never
  // changes what the run sends.
  std::size_t initial_probe_count() const;

  // Supplies the full-cover probe set externally instead of solving MLPC:
  // the continuous-monitoring path, where monitor::Monitor maintains the
  // probes across churn epochs (incremental repair) and hands them to a
  // per-round localizer. Deterministic mode only — the supplied probes
  // become the fixed cover reused at every full restart. The probes must be
  // built against the same snapshot this localizer reads.
  void set_cover_probes(std::vector<Probe> probes);

 private:
  struct ActiveProbe {
    Probe probe;
    controller::TestPointId test_point;
    bool returned = false;
    bool mismatched = false;
    bool was_retried = false;  // at least one confirmation re-send issued
    int linger = 0;  // remaining lingering rounds (localization probes)
    // Deviation evidence: where a mismatched PacketIn came from / what it
    // carried, and the first host delivery seen for this probe (a probe
    // that leaks out of the network instead of returning was misrouted).
    flow::SwitchId returned_from = -1;
    hsa::TernaryString returned_header;
    flow::SwitchId delivered_sw = -1;
    hsa::TernaryString delivered_header;
  };
  // Correlates a PacketIn back to its probe: index into the round's active
  // probe list plus the injection time (for RTT observation).
  struct Pending {
    std::size_t index = 0;
    double sent_s = 0.0;
  };

  // (Re)generates the full-cover probe list; charges wall time to sim time.
  // Mutable path: consumes staged_ first when initial_probe_count() already
  // generated a cover.
  std::vector<Probe> generate_full_cover() const;
  void charge_wall_time(double seconds) const;
  // Grace period for in-flight returns: fixed round_grace_s, or derived
  // from observed RTTs when adaptive_timeout is on and an RTT exists.
  double effective_grace() const;
  // Retry timeout for one probe: its span's observed RTT if known, else the
  // global max RTT, else effective_grace().
  double probe_timeout(const Probe& p) const;

  const AnalysisSnapshot* snapshot_;
  const RuleGraph* graph_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  LocalizerConfig config_;
  // Declared before engine_: the engine borrows the pool. Null when serial.
  std::unique_ptr<util::ThreadPool> pool_;
  // Cover/probe generation state is mutable so the const
  // initial_probe_count() can build and cache the first cover.
  mutable ProbeEngine engine_;
  mutable util::Rng rng_;
  // Deterministic mode: the fixed cover probes, reused each restart.
  mutable std::vector<Probe> fixed_probes_;
  mutable bool fixed_ready_ = false;
  // Randomized mode: a cover generated by initial_probe_count() ahead of
  // run(), consumed by the first generate_full_cover() call so the RNG
  // stream (and thus the whole run) is unchanged by the query.
  mutable std::optional<std::vector<Probe>> staged_;

  std::map<flow::EntryId, int> suspicion_;
  std::set<flow::SwitchId> flagged_;
  // Observed PacketIn RTTs for adaptive timeouts: the largest RTT seen so
  // far, plus per-span maxima keyed by (first entry, terminal entry).
  double max_rtt_s_ = 0.0;
  std::map<std::pair<flow::EntryId, flow::EntryId>, double> span_rtt_s_;
  // Per-period traffic snapshot (§V-C h^t(ℓ)): refreshed at each full-cover
  // restart in randomized mode so a whole detection cycle samples headers
  // from the flows dominating that period.
  mutable TrafficProfile period_profile_;
  mutable bool have_period_ = false;
  const TrafficProfile* active_profile() const {
    return have_period_ ? &period_profile_ : nullptr;
  }
};

}  // namespace sdnprobe::core

// Fault localization (§VI, Algorithm 2).
//
// Each detection round sends the tested paths' probes through one
// core::ProbeRound (test points, paced injection, returns, retries; see
// probe_round.h). A probe that fails to return (or returns modified)
// marks its path suspicious: every rule on the path gains suspicion, and the
// path is sliced in two for the next round. A rule whose singleton path
// fails while its suspicion exceeds the threshold identifies its switch as
// faulty (threshold 3, per §VIII; the thresholds are named in localizer.cc,
// the retry and timeout constants in probe_round.cc).
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
#include <optional>
#include <set>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/probe_round.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "sim/event_loop.h"

namespace sdnprobe::core {

struct LocalizerConfig {
  int max_rounds = 64;
  // Shared knobs (core/common_options.h): `randomized` selects Randomized
  // SDNProbe (re-draw cover and headers at every full restart), `seed` feeds
  // the localizer's RNG. The localizer runs serially: cover (re)generation
  // and probe construction borrow no thread pool.
  CommonOptions common;
  // Optional traffic profile for header randomization (used in randomized
  // mode; ignored otherwise to keep deterministic headers stable).
  const TrafficProfile* profile = nullptr;
  // Stop after this many consecutive failure-free full-cover rounds.
  int quiet_full_rounds_to_stop = 1;
  // Read by nothing in the library: only scheduled simulated events
  // advance the clock, and host generation time is reported in
  // DetectionReport::generation_wall_s. Kept only until a benchmark change
  // drops pipebench's writes to it.
  bool charge_generation_time = false;

  // ---- Loss tolerance (environmental noise, DESIGN.md §11) ----
  //
  // On an error-prone channel a probe can vanish for reasons unrelated to
  // rule faults. With `confirm_retries` > 0 a probe that fails to *return*
  // is re-sent up to that many times (with exponential backoff) before its
  // path is charged with suspicion; a probe that returns *modified* is
  // fault evidence and is never retried. Both knobs default off so a
  // zero-noise run is bit-identical to builds that predate the channel
  // model.
  int confirm_retries = 0;
  // Adaptive timeouts: derive the per-round grace period (and per-probe
  // retry timeouts) from observed PacketIn RTTs — a fixed multiple of the
  // largest RTT seen so far, with a floor — instead of the fixed
  // kDefaultRoundGraceS, which is used until an RTT has been observed.
  bool adaptive_timeout = false;
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
  // Host seconds spent generating covers and probes (the localizer's full
  // covers, ATPG's set cover and per-wave regeneration). Measured wall
  // time, so it varies from run to run; it never advances the simulated
  // clock and is not part of either time above.
  double generation_wall_s = 0.0;
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
  // span, so the list is deterministic from run to run.
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
  // (Re)generates the full-cover probe list and adds its host time to
  // generation_wall_s_. Mutable path: consumes staged_ first when
  // initial_probe_count() already generated a cover.
  std::vector<Probe> generate_full_cover() const;

  const AnalysisSnapshot* snapshot_;
  const RuleGraph* graph_;
  sim::EventLoop* loop_;
  LocalizerConfig config_;
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
  // Generation host seconds not yet reported; run() moves them into its
  // report, so a cover staged before run() is counted in that run.
  mutable double generation_wall_s_ = 0.0;

  // Test-point install, injection, retries and teardown; keeps observed
  // RTTs (adaptive timeouts) across rounds and runs.
  ProbeRound round_;

  std::map<flow::EntryId, int> suspicion_;
  std::set<flow::SwitchId> flagged_;
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

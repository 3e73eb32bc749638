// repair::RepairEngine — the closed loop: diagnose a flagged switch,
// synthesize candidate FlowMod patches, dry-run-verify them against the
// active invariant set, install the safest survivor, re-probe to confirm,
// and roll back if the confirmation still sees the fault (DESIGN.md §15).
//
// Safety ladder (every rung must hold before the next is climbed):
//
//   1. verify   every candidate patch is applied to a *scratch world* — a
//               copy of the live RuleSet with its own RuleGraph — and the
//               engine's analysis::Verifier re-checks the invariants
//               incrementally (apply_delta over the patch's touched
//               region). A patch that introduces any error diagnostic the
//               live network does not already have (loop, blackhole,
//               reachability shrink, forbidden path) is rejected. No patch
//               ever reaches the dataplane without this pass.
//   2. fence    verification reads one epoch; installation must happen in
//               the same one. After verifying (and after the test-only
//               after_verify_hook), any concurrent churn — pending ops or
//               an epoch bump — forces a re-verify of all candidates
//               against the new world. Bounded by kMaxFenceRetries
//               (engine.cc).
//   3. lint     the winning candidate is additionally checked through
//               analysis::build_checked_snapshot: structural lint errors
//               not present in the live ruleset reject it.
//   4. confirm  the patch is installed through the monitor as one churn
//               batch, then a targeted FaultLocalizer episode re-probes
//               the installed entries' paths (loss-tolerant, per the
//               monitor's confirm config). Healed means zero failures and
//               zero flags across the episode.
//   5. rollback a failed confirmation applies monitor::Monitor::invert of
//               the installed batch — the exact inverse FlowMods — and the
//               engine moves to the next survivor (at most
//               kMaxPatchAttempts installs per heal, engine.cc).
//
// A confirmed non-quarantining patch clears the monitor flag
// (mark_repaired); a confirmed reroute leaves the flag up — traffic is
// safe, the switch still needs hands.
//
// Determinism: diagnosis, synthesis, verification, and confirm probing are
// pure functions of (snapshot, report, seed); confirm episodes run
// serially off a derived seed stream, so a heal is bit-identical from run
// to run. Telemetry records outcomes and never influences control flow.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant.h"
#include "analysis/verifier.h"
#include "controller/controller.h"
#include "core/common_options.h"
#include "core/localizer.h"
#include "monitor/monitor.h"
#include "repair/diagnosis.h"
#include "repair/patch.h"
#include "sim/event_loop.h"

namespace sdnprobe::repair {

// One candidate's journey through the safety ladder.
struct PatchAttempt {
  Strategy strategy = Strategy::kReinstallFromIntent;
  double blast_radius = 0.0;
  bool verified = false;     // survived scratch-world invariant dry-run
  bool installed = false;    // reached the dataplane
  bool confirmed = false;    // targeted re-probe came back clean
  bool rolled_back = false;  // inverse batch applied after a failed confirm
  std::string description;
};

struct RepairOutcome {
  flow::SwitchId target = -1;
  FaultDiagnosis diagnosis;
  bool healed = false;
  // Healed via a quarantining strategy: traffic is safe but the switch
  // flag intentionally stays up.
  bool quarantined = false;
  Strategy strategy = Strategy::kReinstallFromIntent;  // valid iff healed
  std::vector<PatchAttempt> attempts;
  std::size_t patches_proposed = 0;
  // Times the epoch fence forced re-verification of all candidates
  // because churn landed between verify and install.
  int verify_reruns = 0;
  double time_to_heal_s = 0.0;  // sim seconds, heal() entry -> confirm

  std::string to_string() const;
};

struct RepairConfig {
  // Invariants every candidate must preserve in the dry run. Empty set
  // still rejects nothing-by-invariant but keeps the verify/fence
  // machinery (loop/blackhole checks fire only if declared).
  analysis::InvariantSet invariants;
  // Template for confirm episodes; common/max_rounds/quiet fields are
  // overwritten per episode (seed derived).
  core::LocalizerConfig confirm;
  core::CommonOptions common;  // seed for confirm-probe streams
  // Test hook: runs after dry-run verification, before the epoch fence
  // re-check — the exact window where concurrent churn would make a
  // verified patch stale. Production leaves it empty.
  std::function<void()> after_verify_hook;
};

class RepairEngine {
 public:
  RepairEngine(monitor::Monitor& mon, controller::Controller& ctrl,
               sim::EventLoop& loop, RepairConfig config = {});
  ~RepairEngine();  // out-of-line: Instruments is complete only in engine.cc

  RepairEngine(const RepairEngine&) = delete;
  RepairEngine& operator=(const RepairEngine&) = delete;

  // Full heal episode for `flagged`, using the monitor's last detection
  // report as evidence. The monitor is paused for the duration (confirm
  // episodes advance the sim clock; see Monitor::set_paused).
  RepairOutcome heal(flow::SwitchId flagged);
  // Same, with explicit evidence (tests, replayed corpora).
  RepairOutcome heal(flow::SwitchId flagged,
                     const core::DetectionReport& report);

 private:
  struct Instruments;

  // Rung 1: scratch-world invariant dry-run (see file comment).
  bool dry_run_verify(const Patch& patch) const;
  // Rung 3: structural lint gate through build_checked_snapshot.
  bool lint_gate(const Patch& patch) const;
  // Targeted confirm probes: one path per entry the batch installed,
  // prepended/extended along the live snapshot.
  std::vector<core::Probe> confirm_probes(const core::AnalysisSnapshot& snap,
                                          const monitor::ChurnLog& log,
                                          std::uint64_t seed_stream) const;
  // Rung 4: one targeted localizer episode; true iff zero failures and
  // zero flags.
  bool confirm(const monitor::ChurnLog& log);

  monitor::Monitor* mon_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  RepairConfig config_;
  std::uint64_t confirm_episodes_ = 0;  // derived-seed stream counter
  std::unique_ptr<Instruments> tm_;
};

// Auto-repair stage: hangs a RepairEngine off the monitor's round hook so
// every newly flagged switch triggers a heal inside the same round,
// turning the monitor into the self-healing loop of DESIGN.md §15.
// Construction installs the hook (replacing any previous one); the
// AutoRepair must outlive the monitor's use of it.
class AutoRepair {
 public:
  AutoRepair(monitor::Monitor& mon, controller::Controller& ctrl,
             sim::EventLoop& loop, RepairConfig config = {});

  const std::vector<RepairOutcome>& outcomes() const { return outcomes_; }
  std::size_t heals() const;
  std::size_t quarantines() const;

 private:
  monitor::Monitor* mon_;
  RepairEngine engine_;
  std::vector<RepairOutcome> outcomes_;
};

}  // namespace sdnprobe::repair

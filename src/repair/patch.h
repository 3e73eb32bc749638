// repair::PatchSynthesizer — candidate FlowMod patches for a FaultDiagnosis
// (DESIGN.md §15).
//
// A Patch is an ordered list of churn operations (monitor::ChurnOp installs
// and removals — the FlowMods of this codebase) plus a blast-radius score.
// The synthesizer emits candidates from a three-strategy stack, cheapest
// blast radius first:
//
//   reinstall-from-intent  remove each suspect entry and re-install the copy
//                          the controller believes is installed. Heals any
//                          per-entry fault (the dataplane keys faults by
//                          EntryId; a reinstalled entry is a new id) at the
//                          cost of exactly the suspects' own header volume.
//
//   shadow-tighten         install a clean twin of each suspect at a
//                          priority above everything in its table, leaving
//                          the corrupted original shadowed underneath. Used
//                          when the original must not be touched (priority/
//                          match corruption where a removal could misfire).
//
//   reroute-around         compute an alternate topology path from each
//                          upstream switch to the suspect's next-hop switch
//                          that avoids the faulty switch entirely, and
//                          install covering entries (at the upstream
//                          switches and along the detour) steering the
//                          suspect's traffic around it. The only strategy
//                          that helps when the *switch* is sick rather than
//                          one entry; quarantines rather than repairs, so
//                          the flag stays up.
//
// Every candidate is scored by blast radius = switches modified + the
// fraction of the header space its new matches cover; the RepairEngine
// dry-run-verifies all candidates and installs the safest survivor.
// Synthesis is read-only over the snapshot and fully deterministic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "monitor/monitor.h"
#include "repair/diagnosis.h"

namespace sdnprobe::repair {

enum class Strategy {
  kReinstallFromIntent,
  kShadowTighten,
  kRerouteAround,
};

const char* strategy_name(Strategy s);

struct Patch {
  Strategy strategy = Strategy::kReinstallFromIntent;
  // Ordered FlowMods, applied (and verified) as one churn batch.
  std::vector<monitor::ChurnOp> ops;
  int switches_modified = 0;
  // Header-space volume of the newly installed matches, as a fraction of
  // the full space (sum over cubes of 2^-(fixed bits); may overcount
  // overlap — it is a score, not a measure).
  double volume_fraction = 0.0;
  // switches_modified + volume_fraction; lower = safer to install.
  double blast_radius = 0.0;
  // True when the patch works around the switch instead of restoring it:
  // traffic heals but the switch stays flagged (quarantine semantics).
  bool quarantines = false;
  std::string description;
};

class PatchSynthesizer {
 public:
  explicit PatchSynthesizer(const core::AnalysisSnapshot& snapshot)
      : snapshot_(&snapshot) {}

  // All applicable candidates for `d`, ordered by the diagnosis class's
  // strategy preference (the engine re-orders survivors by blast radius).
  std::vector<Patch> synthesize(const FaultDiagnosis& d) const;

 private:
  std::optional<Patch> reinstall_from_intent(const FaultDiagnosis& d) const;
  std::optional<Patch> shadow_tighten(const FaultDiagnosis& d) const;
  std::optional<Patch> reroute_around(const FaultDiagnosis& d) const;

  int max_priority(flow::SwitchId sw, flow::TableId table) const;
  static void finish_score(Patch* p);

  const core::AnalysisSnapshot* snapshot_;
};

}  // namespace sdnprobe::repair

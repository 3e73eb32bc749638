// repair::Diagnoser — entry-granular fault classification (DESIGN.md §15).
//
// Localization (core::FaultLocalizer) ends at a flagged *switch*; repair
// needs to know *which entries* misbehave and *how*. The diagnoser
// cross-references three independent signal sources:
//
//   * the localizer's per-probe evidence (core::ProbeEvidence): how each
//     failing probe deviated — vanished, returned modified, or was delivered
//     at an off-path host — plus which entries passed on clean probes;
//   * the per-entry suspicion levels and the culprit entry whose suspicion
//     actually crossed the flagging threshold;
//   * the structural linter (analysis::Linter over the episode's
//     snapshot), always consulted: shadowing or ambiguous priority findings
//     at a suspect entry corroborate match/priority corruption.
//
// The output taxonomy mirrors the paper's fault model (§III-B):
//
//   kDroppedEntry        probes through the entry vanish (no return, no
//                        delivery anywhere) — the entry silently drops
//   kMisdirectingOutput  probes are delivered intact at a host off the
//                        expected path — wrong output port
//   kCorruptedEntry      probes return or get delivered with a rewritten
//                        header, or static findings show the entry's
//                        match/priority no longer says what intent says
//   kDetourInsertion     the suspect entry appears on *passing* probes whose
//                        terminals lie at/behind a colluding partner while
//                        shorter probes through it fail — the §III-B
//                        colluding-detour signature
//   kUnknown             a flag with no usable evidence (confidence 0)
//
// Confidence is the fraction of deviation votes consistent with the chosen
// class; the rationale list records every signal consulted. Everything is
// deterministic: evidence is consumed in report order, suspects are ordered
// by (suspicion desc, entry id asc).
#pragma once

#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "flow/entry.h"

namespace sdnprobe::repair {

enum class FaultClass {
  kDroppedEntry,
  kMisdirectingOutput,
  kCorruptedEntry,
  kDetourInsertion,
  kUnknown,
};

const char* fault_class_name(FaultClass c);

// One suspected entry, at (switch, table, entry) granularity.
struct Suspect {
  flow::SwitchId switch_id = -1;
  flow::TableId table_id = -1;
  flow::EntryId entry_id = -1;
  int suspicion = 0;  // localizer suspicion level at diagnosis time
};

struct FaultDiagnosis {
  flow::SwitchId switch_id = -1;
  FaultClass fault_class = FaultClass::kUnknown;
  // Most-suspected first; suspects[0] is the entry the strategies target.
  std::vector<Suspect> suspects;
  // Fraction of deviation votes consistent with fault_class (0 when no
  // evidence reached the diagnoser).
  double confidence = 0.0;
  // Human-readable evidence trail, one signal per line.
  std::vector<std::string> rationale;

  std::string to_string() const;
};

class Diagnoser {
 public:
  // Classifies the fault behind one flagged switch. `report` must be the
  // detection episode that flagged it (its evidence/suspicion/culprit maps
  // are the diagnosis input); `snapshot` the epoch that episode ran against.
  FaultDiagnosis diagnose(const core::AnalysisSnapshot& snapshot,
                          const core::DetectionReport& report,
                          flow::SwitchId flagged) const;
};

}  // namespace sdnprobe::repair

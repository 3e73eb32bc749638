#include "repair/diagnosis.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/linter.h"

namespace sdnprobe::repair {
namespace {

// Entries kept in the suspect set (most-suspected first).
constexpr std::size_t kMaxSuspects = 4;

}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kDroppedEntry:
      return "dropped-entry";
    case FaultClass::kMisdirectingOutput:
      return "misdirecting-output";
    case FaultClass::kCorruptedEntry:
      return "corrupted-entry";
    case FaultClass::kDetourInsertion:
      return "detour-insertion";
    case FaultClass::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string FaultDiagnosis::to_string() const {
  std::ostringstream os;
  os << "switch " << switch_id << ": " << fault_class_name(fault_class)
     << " (confidence " << confidence << ", suspects";
  for (const Suspect& s : suspects) {
    os << " " << s.entry_id << "@t" << s.table_id << "/s" << s.suspicion;
  }
  os << ")";
  return os.str();
}

FaultDiagnosis Diagnoser::diagnose(const core::AnalysisSnapshot& snapshot,
                                   const core::DetectionReport& report,
                                   flow::SwitchId flagged) const {
  FaultDiagnosis d;
  d.switch_id = flagged;
  const flow::RuleSet& rules = snapshot.rules();

  // --- Suspect set: the culprit that crossed the flagging threshold first,
  // then the flagged switch's remaining entries by suspicion. ---
  std::vector<std::pair<int, flow::EntryId>> ranked;  // (-suspicion, id)
  for (const auto& [entry, level] : report.suspicion) {
    if (entry < 0 || static_cast<std::size_t>(entry) >= rules.entry_count()) {
      continue;
    }
    if (rules.entry(entry).switch_id != flagged) continue;
    ranked.emplace_back(-level, entry);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<flow::EntryId> suspect_ids;
  if (const auto it = report.flag_culprits.find(flagged);
      it != report.flag_culprits.end()) {
    suspect_ids.push_back(it->second);
    d.rationale.push_back("flag culprit: entry " +
                          std::to_string(it->second));
  }
  for (const auto& [neg, entry] : ranked) {
    if (suspect_ids.size() >= kMaxSuspects) break;
    if (std::find(suspect_ids.begin(), suspect_ids.end(), entry) ==
        suspect_ids.end()) {
      suspect_ids.push_back(entry);
    }
  }
  for (const flow::EntryId id : suspect_ids) {
    Suspect s;
    s.entry_id = id;
    s.switch_id = flagged;
    s.table_id = rules.entry(id).table_id;
    const auto it = report.suspicion.find(id);
    s.suspicion = it != report.suspicion.end() ? it->second : 0;
    d.suspects.push_back(s);
  }
  if (d.suspects.empty()) {
    d.rationale.push_back("no suspect entries on the flagged switch");
    return d;  // kUnknown, confidence 0
  }
  const flow::EntryId top = d.suspects.front().entry_id;

  // --- Deviation votes from the probe evidence. Only evidence whose
  // expected path crosses a suspect entry counts. ---
  std::set<flow::EntryId> suspect_set(suspect_ids.begin(), suspect_ids.end());
  int votes_missing = 0;
  int votes_misroute = 0;
  int votes_corrupt = 0;
  bool top_on_failing_path = false;
  for (const core::ProbeEvidence& ev : report.evidence) {
    bool crosses = false;
    for (const flow::EntryId e : ev.expected_path) {
      if (suspect_set.count(e)) {
        crosses = true;
        if (e == top) top_on_failing_path = true;
      }
    }
    if (!crosses) continue;
    switch (ev.deviation) {
      case core::DeviationKind::kMissing:
        ++votes_missing;
        break;
      case core::DeviationKind::kMisrouted:
        ++votes_misroute;
        break;
      case core::DeviationKind::kModifiedReturn:
      case core::DeviationKind::kModifiedDelivery:
        ++votes_corrupt;
        break;
    }
  }
  const int total = votes_missing + votes_misroute + votes_corrupt;
  d.rationale.push_back("deviation votes: missing=" +
                        std::to_string(votes_missing) +
                        " misrouted=" + std::to_string(votes_misroute) +
                        " modified=" + std::to_string(votes_corrupt));

  // --- Detour signature: the top suspect also appears on *passing* probes
  // (the colluding partner completes longer spans) while shorter probes
  // through it vanish. A plain drop/misdirect never produces a clean pass
  // through the faulty entry. ---
  const bool top_cleared = report.cleared_entries.count(top) > 0;
  if (top_cleared && top_on_failing_path && votes_missing > 0) {
    d.fault_class = FaultClass::kDetourInsertion;
    d.confidence =
        total > 0 ? static_cast<double>(votes_missing) / total : 0.0;
    d.rationale.push_back(
        "entry " + std::to_string(top) +
        " passed on longer probes while shorter probes through it failed "
        "(colluding-detour signature)");
    return d;
  }

  // --- Structural corroboration: a shadowing or ambiguous-priority finding
  // at a suspect means the installed match/priority no longer behaves like
  // the intended one. ---
  bool lint_corrupt = false;
  const analysis::LintReport lint = analysis::Linter().run(rules);
  for (const analysis::Diagnostic& diag : lint.diagnostics()) {
    if (diag.location.switch_id != flagged) continue;
    if (diag.location.entry_id >= 0 &&
        suspect_set.count(diag.location.entry_id) &&
        (diag.check == analysis::CheckId::kShadowedEntry ||
         diag.check == analysis::CheckId::kAmbiguousPriority)) {
      lint_corrupt = true;
      d.rationale.push_back("linter: " + diag.to_string());
    }
  }

  if (total == 0 && !lint_corrupt) {
    // Flagged with no classified deviation (e.g. all failing probes were
    // explained by earlier flags). Default to the conservative class.
    d.fault_class = FaultClass::kUnknown;
    d.confidence = 0.0;
    return d;
  }

  // Majority vote; ties resolve in severity order corrupt > misroute >
  // missing so a rewrite observed even once is never written off as a drop.
  if (votes_corrupt >= votes_misroute && votes_corrupt >= votes_missing &&
      (votes_corrupt > 0 || lint_corrupt)) {
    d.fault_class = FaultClass::kCorruptedEntry;
    d.confidence = total > 0
                       ? static_cast<double>(votes_corrupt) / total
                       : 0.5;
  } else if (votes_misroute >= votes_missing && votes_misroute > 0) {
    d.fault_class = FaultClass::kMisdirectingOutput;
    d.confidence = static_cast<double>(votes_misroute) / total;
  } else {
    d.fault_class = FaultClass::kDroppedEntry;
    d.confidence = static_cast<double>(votes_missing) / total;
  }
  if (lint_corrupt && d.fault_class != FaultClass::kCorruptedEntry) {
    d.rationale.push_back(
        "note: structural findings suggest corruption but probe evidence "
        "dominates");
  }
  return d;
}

}  // namespace sdnprobe::repair

// Structured diagnostics emitted by the static analyses (analysis::Linter,
// analysis::Verifier).
//
// A Diagnostic is one finding: a severity, a stable machine-readable check
// id, the network location it points at (switch / table / entry, -1 where
// not applicable), a human message, and a key=value payload carrying the
// check-specific evidence (covering entry ids, cycle members, counterexample
// header spaces, ...). DiagnosticReport is the shared collection type;
// LintReport (linter) and VerifyReport (verifier.h) are its concrete runs.
// Reports are sorted by (check id, switch, table, entry id) before emission
// so a report is bit-identical however the producing analysis was scheduled.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "flow/entry.h"

namespace sdnprobe::analysis {

enum class Severity { kInfo = 0, kWarning = 1, kError = 2 };

// Stable check identifiers; check_name() gives the kebab-case spelling used
// in reports and tests.
enum class CheckId {
  kShadowedEntry,        // entry fully covered by earlier overlaps
  kEmptyMatch,           // effective match empty along every forwarding path
  kGotoCycle,            // cycle in a switch's goto-table graph
  kUnreachableTable,     // table never targeted by any goto chain from 0
  kDanglingOutput,       // output action to a port with no link or host
  kDanglingGoto,         // goto to a missing or empty table
  kTopologyDisconnected, // switch topology is not connected
  kTopologyAsymmetricLink,  // adjacency lists disagree about a link
  kTopologyDuplicatePort,   // two ports of one switch bind the same peer
  kRuleGraphCycle,       // step-1 rule graph has a directed cycle
  kEmptyVertexSpace,     // active vertex with empty in/out header space
  kUnsatEdge,            // edge whose recomputed transfer function has
                         // no concrete member (edge-build cross-check)
  kAmbiguousPriority,    // two same-priority overlapping entries in a table
  // --- analysis::Verifier invariant checks (verifier.h). ---
  kUnreachablePair,      // declared can-reach pair with no witnessing class
  kForbiddenPath,        // declared cannot-reach pair has a forwarding path
  kForwardingLoop,       // a header space revisits a rule-graph vertex
  kBlackhole,            // non-drop header space with no egress continuation
  kWaypointBypass,       // src→dst path that skips the declared waypoint
  kInvalidInvariant,     // invariant references unknown switches / bad slice
  kVerifyTruncated,      // per-class traversal budget exhausted
};

const char* check_name(CheckId id);
const char* severity_name(Severity s);

// Where a diagnostic points; -1 means "not applicable at this granularity".
struct Location {
  flow::SwitchId switch_id = -1;
  flow::TableId table_id = -1;
  flow::EntryId entry_id = -1;

  std::string to_string() const;
};

struct Diagnostic {
  Severity severity = Severity::kWarning;
  CheckId check = CheckId::kShadowedEntry;
  Location location;
  std::string message;
  // Machine-readable evidence, e.g. {"covered-by", "3,7"}.
  std::vector<std::pair<std::string, std::string>> payload;

  std::string to_string() const;
};

// Shared collection of findings from one analysis run. Producers call
// sort() once everything is added; it orders diagnostics by (check id,
// switch, table, entry id) with a stable sort, so ties keep their emission
// order and a finished report is a pure function of the analyzed model —
// bit-identical across thread counts and full-vs-incremental runs.
class DiagnosticReport {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::size_t size() const { return diagnostics_.size(); }
  bool empty() const { return diagnostics_.empty(); }

  std::size_t count(Severity s) const;
  std::size_t count(CheckId c) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  // All findings of one check, in report order.
  std::vector<const Diagnostic*> by_check(CheckId c) const;

  // Deterministic emission order; see class comment.
  void sort();
  bool is_sorted() const;

  // One line per diagnostic; empty string for an empty report.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

// Findings of one analysis::Linter run.
class LintReport : public DiagnosticReport {};

}  // namespace sdnprobe::analysis

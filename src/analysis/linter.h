// analysis::Linter — static verification of rulesets, topologies, and rule
// graphs *before* any probe is sent.
//
// SDNProbe's pipeline (rule graph -> MLPC -> probe generation ->
// localization) assumes well-formed inputs: a shadowed entry, a goto-table
// cycle, or a dangling output port corrupts the rule graph and surfaces as a
// confusing downstream failure. The linter detects these defects statically,
// reusing the paper's own §V-A header-space algebra (overlap queries,
// difference, set-field transforms) plus a per-edge witness search as an
// independent cross-check of the rule-graph build.
//
// Check catalogue (see diagnostic.h for ids):
//   shadowed-entry     W  entry fully covered by the overlapping matches
//                         earlier in table order (r.in = ∅, §V-A); warning
//                         because realistic rulesets produce these
//                         legitimately (prefix aggregation + route
//                         diversity) and traffic is still handled
//   empty-match        E  the effective match is empty after set-field /
//                         intersection along every forwarding continuation:
//                         no packet the entry emits can match the next table
//   goto-cycle         E  cycle in a switch's goto-table graph
//   dangling-output    E  output action to a port with no link and no host
//   dangling-goto      E  goto to a missing or empty table
//   ambiguous-priority W  two same-priority overlapping entries in one
//                         table: legal under the tie-aware semantics
//                         (insertion order wins) but almost always a
//                         configuration bug
//   unreachable-table  W  a non-0 table no goto chain from table 0 reaches
//   topology-*         E/W asymmetric adjacency, duplicate port bindings
//                         (E); disconnected topology (W)
//   rule-graph-cycle   E  directed cycle in the step-1 rule graph (violates
//                         the paper's standing acyclicity assumption)
//   empty-vertex-space E  active vertex with an empty in/out header space
//                         (internal invariant; should never fire)
//   unsat-edge         E  rule-graph edge whose transfer function, recomputed
//                         as out(u) ∩ in(w), has no concrete member (indexed
//                         build vs fresh intersection cross-check)
//
// Severity model: errors are defects that make analysis results wrong or
// meaningless; warnings are suspicious-but-functional structure; infos are
// notes (e.g. a truncated check). `LintConfig::strict` upgrades the
// contract: analysis::build_checked_snapshot refuses to hand out a snapshot
// over a ruleset with error-severity findings.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "analysis/diagnostic.h"
#include "analysis/verifier.h"
#include "core/analysis_snapshot.h"
#include "flow/ruleset.h"

namespace sdnprobe::analysis {

struct LintConfig {
  // Error-severity diagnostics, the lint's own and those of `invariants`,
  // abort snapshot construction in build_checked_snapshot (throwing
  // LintError).
  bool strict = false;
  // Maximum number of rule-graph edges whose witness header is searched
  // (unsat-edge; 0 disables the check). When the graph has more edges, the
  // first `edge_witness_budget` in deterministic order are checked and an
  // info diagnostic records the truncation.
  std::size_t edge_witness_budget = 512;
  // Network-wide invariants build_checked_snapshot verifies over the
  // freshly built snapshot (analysis::Verifier); their diagnostics are
  // merged into the lint report. Empty = no verification.
  InvariantSet invariants;
};

class Linter {
 public:
  explicit Linter(LintConfig config = {}) : config_(config) {}

  // The whole battery over one snapshot: the structural checks over its
  // rules (shadowing read off the graph's dead entries, r.out off its cached
  // vertex spaces; goto-table cycles, unreachable tables, dangling actions,
  // empty forwarding matches, topology consistency) plus the rule-graph
  // invariants. A structure-only run sets edge_witness_budget = 0.
  LintReport run(const core::AnalysisSnapshot& snapshot) const;

  const LintConfig& config() const { return config_; }

 private:
  LintConfig config_;
};

// Thrown by build_checked_snapshot when strict linting rejects the input.
class LintError : public std::runtime_error {
 public:
  explicit LintError(LintReport report);
  const LintReport& report() const { return report_; }

 private:
  LintReport report_;
};

// The strict-mode entry point to snapshot construction: builds the rule
// graph + snapshot from `rules`, lints it, and
//   - with config.strict and error-severity findings: throws LintError
//     (construction is aborted; no snapshot escapes);
//   - with a non-empty config.invariants: verifies them over the snapshot
//     and merges the verify diagnostics into the report; with
//     config.strict, invariant violations also throw LintError;
//   - otherwise: returns the snapshot (and the full report through
//     `report_out` when non-null).
// `rules` must outlive the returned snapshot, as with
// core::AnalysisSnapshot::build.
core::AnalysisSnapshot build_checked_snapshot(const flow::RuleSet& rules,
                                              const LintConfig& config = {},
                                              LintReport* report_out = nullptr);

}  // namespace sdnprobe::analysis

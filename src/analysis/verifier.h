// analysis::Verifier — incremental network-wide invariant verification over
// the rule graph (DESIGN.md §14).
//
// The verifier compiles an AnalysisSnapshot into *forwarding equivalence
// classes*: one class per active (switch, table 0) vertex, seeded with that
// vertex's tie-aware input space (per-table input spaces are pairwise
// disjoint, so the classes partition everything each switch can absorb from
// a host). Each class is verified independently by propagating its header
// space through the rule graph with hsa::HeaderSpace algebra and checking
// the declared InvariantSet:
//
//   loop-free        a propagated space revisiting an on-stack vertex is a
//                    forwarding loop (kForwardingLoop, with the cycle and
//                    the looping space as evidence)
//   blackhole-free   at every handoff, the emitted space not absorbed by
//                    any successor is a table-miss blackhole; output to a
//                    linkless port blackholes everything (kBlackhole, with
//                    the residual space). Drop / to-controller / host-port
//                    egress are intentional terminals.
//   reach a b        some class at switch a (intersected with the slice)
//                    delivers headers to a vertex on switch b; a reach
//                    invariant no class witnesses is a kUnreachablePair
//   no-reach a b     a sliced delivery a→b is a kForbiddenPath, with the
//                    violating rule-graph path and the injectable
//                    counterexample headers
//   waypoint a v b   a sliced a→b path that first arrives at b without
//                    having traversed v is a kWaypointBypass
//
// Incrementality (the point of this class): every class result carries its
// *footprint* — each vertex the traversal examined, including successors
// rejected for an empty intersection. After a churn batch, apply_delta()
// re-verifies only classes whose footprint intersects the batch's dirty
// region (the rule graph's `touched` vertices extended with their current
// predecessors, because RuleGraph::connect_vertex rewires a predecessor's
// adjacency without reporting it) and reuses every other class verbatim —
// VeriFlow-style delta slicing. Since a class verdict is a pure function of
// the subgraph its footprint spans, the assembled report is bit-identical
// to a full re-verify (tests/verifier_test.cc holds that line under churn
// fuzz; bench/bench_verifier.cc measures the speedup).
//
// Determinism: traversal order is successor-list order, class order is
// EntryId order, and reports are sorted (diagnostic.h); a report is a pure
// function of (snapshot, invariants, config) for any thread count.
//
// Contract: apply_delta requires that every snapshot passed in descends
// from the same incrementally maintained RuleGraph lineage as the previous
// verify/apply_delta call (vertex slots stable across churn), which is
// exactly what monitor::Monitor's epoch model provides.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/invariant.h"
#include "core/analysis_snapshot.h"

namespace sdnprobe::analysis {

struct VerifierConfig {
  // Traversal budget per equivalence class, in edge expansions summed over
  // all of the class's walks. Exhaustion stops the class deterministically
  // and the run carries one kVerifyTruncated info diagnostic.
  std::size_t class_step_budget = 4096;
};

// Accounting for one verify/apply_delta run.
struct VerifyStats {
  std::size_t classes_total = 0;     // equivalence classes in the snapshot
  std::size_t classes_verified = 0;  // traversed this run
  std::size_t classes_reused = 0;    // cache hits (apply_delta only)
  std::size_t steps = 0;             // edge expansions this run
  std::size_t truncated_classes = 0;
};

class VerifyReport : public DiagnosticReport {
 public:
  const VerifyStats& stats() const { return stats_; }

 private:
  friend class Verifier;
  VerifyStats stats_;
};

class Verifier {
 public:
  // Per-equivalence-class verdict: the diagnostics the class produced, the
  // vertices its traversal examined (sorted; the delta-slicing key), and
  // which reach invariants it witnessed.
  struct ClassResult {
    std::vector<Diagnostic> diagnostics;
    std::vector<core::VertexId> footprint;
    std::vector<std::uint8_t> witnessed;  // indexed like InvariantSet
    std::size_t steps = 0;
    bool truncated = false;
  };

  explicit Verifier(InvariantSet invariants, VerifierConfig config = {});

  // Full verification: recompiles every equivalence class, replacing any
  // cached state. The baseline apply_delta is measured against.
  VerifyReport verify(const core::AnalysisSnapshot& snapshot);

  // Incremental re-verification after a churn batch. `touched` is the
  // affected-vertex list the RuleGraph::apply_entry_* calls reported for
  // the batch that produced `snapshot`. Requires a prior verify() on the
  // same graph lineage. The returned report is bit-identical to
  // verify(snapshot)'s.
  VerifyReport apply_delta(const core::AnalysisSnapshot& snapshot,
                           std::span<const core::VertexId> touched);

  const InvariantSet& invariants() const { return invariants_; }
  const VerifierConfig& config() const { return config_; }

 private:
  ClassResult verify_class(const core::AnalysisSnapshot& snapshot,
                           core::VertexId seed,
                           const std::vector<std::uint8_t>& invalid) const;
  // Per-invariant validity against this snapshot's switch range / width.
  std::vector<std::uint8_t> invalid_invariants(
      const core::AnalysisSnapshot& snapshot) const;
  VerifyReport assemble(const core::AnalysisSnapshot& snapshot,
                        VerifyStats stats) const;

  InvariantSet invariants_;
  VerifierConfig config_;
  // Class cache keyed by the seed vertex's EntryId (stable across churn,
  // unlike raw snapshot enumeration order). std::map: deterministic
  // iteration makes report assembly independent of insertion history.
  // Results never change once computed, so copies of a Verifier (repair's
  // dry runs start from one) share them instead of duplicating footprints.
  std::map<flow::EntryId, std::shared_ptr<const ClassResult>> classes_;
  bool verified_ = false;
};

}  // namespace sdnprobe::analysis

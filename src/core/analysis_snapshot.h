// Immutable analysis snapshot: the read-only network model every per-round
// analysis pass (MLPC, probe construction, localization bookkeeping, the
// ATPG / per-rule baselines, the bench drivers) consumes.
//
// A snapshot bundles the rule graph, the rule set and switch topology it was
// built from, the per-vertex input/output header spaces, a fan-in-ordered
// successor cache for the MLPC stitch search, and a per-ingress index of
// table-0 vertices. It is built once per detection round and then only
// read: every accessor is const and returns references to data fixed at
// build time, so a snapshot may be shared by any number of worker threads
// (see util::ThreadPool) without synchronization. Thread-safety is a
// type-level property here — code that holds a `const AnalysisSnapshot&`
// cannot mutate the model — rather than a convention about who calls what
// when.
//
// Contract: the underlying RuleGraph must not be mutated (e.g. via
// RuleGraph::apply_entry_added) while a snapshot over it is alive.
// Incremental updates happen *between* detection rounds; rebuilding a
// non-owning snapshot afterwards costs O(V) for the successor cache, not a
// graph reconstruction.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/rule_graph.h"
#include "hsa/header_space.h"
#include "util/check.h"

namespace sdnprobe::core {

class AnalysisSnapshot {
 public:
  // Non-owning view: `graph` must outlive the snapshot and stay unmutated.
  explicit AnalysisSnapshot(const RuleGraph& graph);

  // Owning build: constructs the rule graph from `rules` and keeps it alive
  // for the snapshot's lifetime. `rules` itself must outlive the snapshot.
  static AnalysisSnapshot build(const flow::RuleSet& rules);

  // Owning adoption of an incrementally maintained graph: copies (or moves)
  // `graph` into the snapshot, freezing its vertices, spaces, and edges at
  // this instant — the epoch-swap primitive of monitor::Monitor. The source
  // graph may keep mutating afterwards; this snapshot never sees it. The
  // RuleSet the graph was built from must outlive the snapshot and stay
  // append-only-with-tombstones (EntryIds the snapshot's graph references must
  // keep resolving), which flow::RuleSet guarantees.
  static AnalysisSnapshot adopt(RuleGraph graph);

  AnalysisSnapshot(AnalysisSnapshot&&) = default;
  AnalysisSnapshot& operator=(AnalysisSnapshot&&) = default;
  AnalysisSnapshot(const AnalysisSnapshot&) = delete;
  AnalysisSnapshot& operator=(const AnalysisSnapshot&) = delete;

  const RuleGraph& graph() const { return *graph_; }
  const flow::RuleSet& rules() const { return graph_->rules(); }
  const topo::Graph& topology() const { return graph_->rules().topology(); }

  // --- Rule-graph delegation (the read-only surface analyses use). ---
  int vertex_count() const { return graph_->vertex_count(); }
  int header_width() const { return graph_->rules().header_width(); }
  flow::EntryId entry_of(VertexId v) const { return graph_->entry_of(v); }
  VertexId vertex_for(flow::EntryId id) const { return graph_->vertex_for(id); }
  bool is_active(VertexId v) const { return graph_->is_active(v); }
  const hsa::HeaderSpace& in_space(VertexId v) const {
    return graph_->in_space(v);
  }
  const hsa::HeaderSpace& out_space(VertexId v) const {
    return graph_->out_space(v);
  }
  std::span<const VertexId> successors(VertexId v) const {
    return graph_->successors(v);
  }
  std::span<const VertexId> predecessors(VertexId v) const {
    return graph_->predecessors(v);
  }
  hsa::HeaderSpace propagate(const hsa::HeaderSpace& incoming,
                             VertexId v) const {
    return graph_->propagate(incoming, v);
  }
  hsa::HeaderSpace path_output_space(const std::vector<VertexId>& path) const {
    return graph_->path_output_space(path);
  }
  hsa::HeaderSpace path_input_space(const std::vector<VertexId>& path) const {
    return graph_->path_input_space(path);
  }
  bool is_legal_path(const std::vector<VertexId>& path) const {
    return graph_->is_legal_path(path);
  }

  // The full header space (Definition 1's starting point), built once.
  const hsa::HeaderSpace& full_space() const { return full_; }

  // Per-ingress forwarding-equivalence-class seeds: the active vertices
  // whose entries live in (sw, table 0), ascending by vertex id. A packet a
  // host injects at `sw` enters table 0, and the tie-aware per-table input
  // spaces are pairwise disjoint — so these vertices' in-spaces partition
  // the headers the switch can absorb, one equivalence class per vertex
  // (the compilation unit of analysis::Verifier, DESIGN.md §14).
  std::span<const VertexId> ingress_vertices(flow::SwitchId sw) const {
    const auto i = static_cast<std::size_t>(sw);
    if (sw < 0 || i >= ingress_.size()) return {};
    return ingress_[i];
  }

  // Successors of v stable-sorted by predecessor count, ascending. This is
  // the MLPC stitch-search visit order (a successor only we can reach must
  // be claimed by us or it stays a singleton); precomputing it turns a
  // per-DFS-step stable_sort into a lookup shared by all restarts/workers.
  const std::vector<VertexId>& successors_by_fanin(VertexId v) const {
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(v), succ_by_fanin_.size());
    return succ_by_fanin_[static_cast<std::size_t>(v)];
  }

 private:
  std::shared_ptr<const RuleGraph> owned_;  // null for non-owning views
  const RuleGraph* graph_;
  hsa::HeaderSpace full_;
  std::vector<std::vector<VertexId>> succ_by_fanin_;
  std::vector<std::vector<VertexId>> ingress_;  // indexed by switch id
};

// Canonical, EntryId-independent fingerprint of the snapshotted network model:
// one line per active vertex — the entry's semantic signature (switch,
// table, priority, match, set field, action) plus its computed in/out
// header spaces and the signatures of its rule-graph successors — with
// cube lists and line order sorted so neither subtraction order nor entry
// numbering leaks in. Two snapshots whose rulesets are identical up to
// entry renumbering fingerprint identically, which is the bit-identity
// oracle for the repair rollback property test (install + remove, then
// apply monitor::Monitor::invert, must return to the original string).
std::string canonical_fingerprint(const AnalysisSnapshot& snap);

}  // namespace sdnprobe::core

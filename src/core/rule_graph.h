// Rule graph construction (§V-A).
//
// Vertices are flow entries, labeled with match field, set field, output
// port and priority. A step-1 edge (ri, rj) exists iff ri's action can hand
// packets to rj's table (output to rj's switch, or goto rj's table) and
// ri.out ∩ rj.in ≠ ∅.
//
// The paper then applies a *legal transitive closure* so the graph encodes
// reachability over legal paths (Definition 1). Materializing the closure is
// O(V^2) in the worst case; this implementation instead exposes exact legal
// reachability *lazily* via header-space propagation (propagate() plus
// DFS helpers used by the MLPC solver), which is semantically the closure
// relation queried on demand. A bounded materialized closure is available
// for the small didactic graphs in tests (closure_edges()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/ruleset.h"
#include "hsa/header_space.h"
#include "util/check.h"
#include "util/small_vector.h"

namespace sdnprobe::core {

// Vertex index into RuleGraph; vertex v corresponds to entry_of(v).
using VertexId = int;

// Adjacency storage: inline up to 4 edges per vertex, so the common short
// lists live contiguously inside the graph's vertex arrays (pool-style)
// instead of one heap block per vertex.
using AdjList = util::SmallVec<VertexId, 4>;

class RuleGraph {
 public:
  // Builds the rule graph for every *policy* entry of `rules` whose input
  // space is non-empty (fully shadowed entries cannot be exercised by any
  // packet; they are reported via dead_entries()).
  explicit RuleGraph(const flow::RuleSet& rules);

  const flow::RuleSet& rules() const { return *rules_; }

  int vertex_count() const { return static_cast<int>(entry_of_.size()); }
  flow::EntryId entry_of(VertexId v) const {
    SDNPROBE_DCHECK_GE(v, 0);
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(v), entry_of_.size());
    return entry_of_[static_cast<std::size_t>(v)];
  }
  // Vertex for an entry id; -1 if the entry is dead (untestable).
  VertexId vertex_for(flow::EntryId id) const;

  // Entries with empty input space (unreachable by any packet).
  const std::vector<flow::EntryId>& dead_entries() const {
    return dead_entries_;
  }

  // A vertex deactivated by an incremental update (its entry became fully
  // shadowed) keeps its slot but has an empty input space and no edges.
  bool is_active(VertexId v) const {
    return !in_[static_cast<std::size_t>(v)].is_empty();
  }

  // Incremental maintenance (§VIII-C: "SDNProbe can update the rule graph
  // incrementally to reduce overhead"). Call after appending a new entry to
  // the SAME RuleSet this graph was built from. Only the affected region is
  // recomputed: the new entry's vertex and edges, plus same-table
  // lower-priority overlapping entries whose input spaces shrank (and whose
  // incident edges may appear or disappear). Entries fully shadowed by the
  // new rule are deactivated in place. Returns the new entry's vertex, or
  // -1 when the new entry is dead on arrival.
  //
  // When `touched` is non-null, every vertex whose input space or edge set
  // was recomputed (including the new vertex and deactivated vertices) is
  // appended to it — the affected region consumers like monitor::Monitor use
  // to decide which probes survive a churn batch.
  VertexId apply_entry_added(flow::EntryId id,
                             std::vector<VertexId>* touched = nullptr);

  // Removal counterpart. Call after flow::RuleSet::remove_entry(id) on the
  // SAME RuleSet. The removed entry's vertex is deactivated in place (slot
  // retained); same-table lower-priority overlapping entries regain the
  // header space the removed rule was shadowing, so their spaces and
  // incident edges are recomputed — entries the removed rule had fully
  // shadowed come back to life (reusing their old slot when they ever had
  // one, appending a fresh vertex otherwise). Returns the affected vertices,
  // same contract as apply_entry_added's `touched`.
  std::vector<VertexId> apply_entry_removed(flow::EntryId id);

  // Cached r.in / r.out header spaces (non-empty by construction).
  const hsa::HeaderSpace& in_space(VertexId v) const {
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(v), in_.size());
    return in_[static_cast<std::size_t>(v)];
  }
  const hsa::HeaderSpace& out_space(VertexId v) const {
    SDNPROBE_DCHECK_LT(static_cast<std::size_t>(v), out_.size());
    return out_[static_cast<std::size_t>(v)];
  }

  // Step-1 successor / predecessor vertices.
  std::span<const VertexId> successors(VertexId v) const {
    return adj_[static_cast<std::size_t>(v)].span();
  }
  std::span<const VertexId> predecessors(VertexId v) const {
    return radj_[static_cast<std::size_t>(v)].span();
  }
  std::size_t edge_count() const { return edge_count_; }

  // One propagation step of Definition 1: O' = T(O ∩ v.in, v.s).
  hsa::HeaderSpace propagate(const hsa::HeaderSpace& incoming,
                             VertexId v) const;

  // The header space of packets able to traverse the whole vertex sequence
  // (empty result <=> the sequence is not a legal path). The space is
  // expressed *post*-traversal (after the last set field); see
  // path_input_space for the matching injectable headers.
  hsa::HeaderSpace path_output_space(const std::vector<VertexId>& path) const;

  // The set of injectable headers that traverse `path` end to end: computed
  // by forward propagation with tracking of the original header bits.
  // Returns the input-side header space (empty <=> illegal path).
  hsa::HeaderSpace path_input_space(const std::vector<VertexId>& path) const;

  // True iff the vertex sequence is a legal path (Definition 1).
  bool is_legal_path(const std::vector<VertexId>& path) const;

  // One directed cycle of the step-1 graph, as vertices in path order, or
  // empty when the graph is acyclic (the paper's standing assumption on
  // well-formed policies, checkable with HSA/VeriFlow-style tools [24,25]).
  std::vector<VertexId> find_cycle() const;

  // Materialized legal transitive closure for small graphs: for every vertex
  // u, the vertices v != u reachable via a legal path. Intended for tests
  // and the didactic example; cost grows with the number of legal subpaths.
  std::vector<std::vector<VertexId>> closure_edges(
      std::size_t max_paths_per_vertex = 100000) const;

 private:
  // Construction body: build_vertices(), then build_edges().
  void build();
  // Vertices and their in/out spaces, from RuleSet::for_each_input_space.
  void build_vertices();
  // Step-1 edges, found through a per-table flow::PrefixIndex.
  void build_edges();

  // Removes every edge incident to v (both directions).
  void detach_vertex(VertexId v);
  // Rebuilds v's edges from its current in/out spaces by scanning the
  // bounded candidate sets (peer tables and potential predecessors).
  void connect_vertex(VertexId v);

  // Ensures vertex_of_entry_ / slot_of_entry_ cover entry ids up to `id`.
  void grow_entry_maps(flow::EntryId id);
  // Appends a fresh vertex slot for `id` with the given input space.
  VertexId append_vertex(flow::EntryId id, hsa::HeaderSpace in);
  // Deactivates v in place: empty spaces, no edges, entry marked dead.
  void deactivate_vertex(VertexId v);
  // Recomputes q's input space from the current tables and reconciles its
  // vertex state (activate / deactivate / resurrect / reconnect). Appends
  // every vertex it touched to `touched`.
  void refresh_entry(flow::EntryId q, std::vector<VertexId>* touched);

  const flow::RuleSet* rules_;
  std::vector<flow::EntryId> entry_of_;
  std::vector<VertexId> vertex_of_entry_;  // -1 = dead / not a vertex
  // Like vertex_of_entry_, but retained across deactivation: the slot an
  // entry's vertex occupies (or occupied), -1 if it never had one. Lets
  // apply_entry_removed resurrect a previously shadowed entry into its old
  // slot, keeping vertex ids stable for long-lived probe sets.
  std::vector<VertexId> slot_of_entry_;
  std::vector<flow::EntryId> dead_entries_;
  std::vector<hsa::HeaderSpace> in_;
  std::vector<hsa::HeaderSpace> out_;
  std::vector<AdjList> adj_;
  std::vector<AdjList> radj_;
  std::size_t edge_count_ = 0;
};

}  // namespace sdnprobe::core

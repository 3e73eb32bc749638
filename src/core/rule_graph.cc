#include "core/rule_graph.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "util/check.h"
#include "util/logging.h"

namespace sdnprobe::core {
namespace {

// Buckets a table's vertices by the exact value of the first
// min(kIndexBits, width) header bits of their match field, so edge
// construction probes only plausible targets instead of every entry on the
// peer switch. Entries whose match wildcards any indexed bit land in the
// always-checked bucket.
class PrefixIndex {
 public:
  static constexpr int kIndexBits = 12;

  PrefixIndex(int width) : bits_(std::min(kIndexBits, width)) {}

  void add(VertexId v, const hsa::TernaryString& match) {
    const auto key = key_of(match);
    if (key.has_value()) {
      exact_[*key].push_back(v);
    } else {
      wildcard_.push_back(v);
    }
  }

  // Candidate vertices whose match might intersect `cube`.
  void collect(const hsa::TernaryString& cube,
               std::vector<VertexId>& out) const {
    const auto key = key_of(cube);
    if (key.has_value()) {
      const auto it = exact_.find(*key);
      if (it != exact_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
      out.insert(out.end(), wildcard_.begin(), wildcard_.end());
    } else {
      // Source cube wildcards an indexed bit: all buckets are plausible.
      for (const auto& [k, vs] : exact_) {
        out.insert(out.end(), vs.begin(), vs.end());
      }
      out.insert(out.end(), wildcard_.begin(), wildcard_.end());
    }
  }

 private:
  std::optional<std::uint32_t> key_of(const hsa::TernaryString& t) const {
    std::uint32_t key = 0;
    for (int k = 0; k < bits_; ++k) {
      const hsa::Trit tr = t.get(k);
      if (tr == hsa::Trit::kWild) return std::nullopt;
      key = (key << 1) | (tr == hsa::Trit::kOne ? 1u : 0u);
    }
    return key;
  }

  int bits_;
  std::unordered_map<std::uint32_t, std::vector<VertexId>> exact_;
  std::vector<VertexId> wildcard_;
};

// Where an entry hands packets off to, if anywhere: (switch, table).
std::optional<std::pair<flow::SwitchId, flow::TableId>> handoff_target(
    const flow::RuleSet& rules, const flow::FlowEntry& e) {
  switch (e.action.type) {
    case flow::ActionType::kOutput: {
      const auto peer = rules.next_switch(e.id);
      if (!peer.has_value()) return std::nullopt;  // host port
      return std::make_pair(*peer, flow::TableId{0});
    }
    case flow::ActionType::kGotoTable:
      return std::make_pair(e.switch_id, e.action.next_table);
    case flow::ActionType::kDrop:
    case flow::ActionType::kToController:
      return std::nullopt;
  }
  return std::nullopt;
}

bool spaces_intersect(const hsa::HeaderSpace& a, const hsa::HeaderSpace& b) {
  for (const auto& ca : a.cubes()) {
    for (const auto& cb : b.cubes()) {
      if (ca.intersects(cb)) return true;
    }
  }
  return false;
}

}  // namespace

RuleGraph::RuleGraph(const flow::RuleSet& rules) : rules_(&rules) { build(); }

void RuleGraph::build() {
  const flow::RuleSet& rules = *rules_;
  const std::size_t n_entries = rules.entry_count();
  vertex_of_entry_.assign(n_entries, -1);
  slot_of_entry_.assign(n_entries, -1);

  // Vertices: testable entries only. Removed (tombstoned) entries are not
  // part of the policy at all — neither vertices nor dead entries.
  for (flow::EntryId id = 0; id < static_cast<flow::EntryId>(n_entries);
       ++id) {
    if (rules.is_removed(id)) continue;
    hsa::HeaderSpace in = rules.input_space(id);
    if (in.is_empty()) {
      dead_entries_.push_back(id);
      continue;
    }
    const VertexId v = static_cast<VertexId>(entry_of_.size());
    vertex_of_entry_[static_cast<std::size_t>(id)] = v;
    slot_of_entry_[static_cast<std::size_t>(id)] = v;
    entry_of_.push_back(id);
    out_.push_back(in.transform(rules.entry(id).set_field));
    in_.push_back(std::move(in));
  }

  const int V = vertex_count();
  adj_.resize(static_cast<std::size_t>(V));
  radj_.resize(static_cast<std::size_t>(V));

  // Per-(switch, table) prefix index over vertices.
  std::unordered_map<std::uint64_t, PrefixIndex> index;
  auto table_key = [](flow::SwitchId s, flow::TableId t) {
    return (static_cast<std::uint64_t>(s) << 16) |
           static_cast<std::uint64_t>(t);
  };
  for (VertexId v = 0; v < V; ++v) {
    const auto& e = rules.entry(entry_of(v));
    auto [it, inserted] = index.try_emplace(table_key(e.switch_id, e.table_id),
                                            rules.header_width());
    it->second.add(v, e.match);
  }

  // Step-1 edges: (ri, rj) iff ri hands off to rj's table and
  // ri.out ∩ rj.in != ∅. `seen` is allocated once and reset via the
  // `marked` scratch list — a per-vertex V-sized assign() would make edge
  // construction Θ(V²) regardless of graph sparsity.
  std::vector<VertexId> candidates;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(V), 0);
  std::vector<VertexId> marked;
  for (VertexId v = 0; v < V; ++v) {
    const auto& e = rules.entry(entry_of(v));
    const auto target = handoff_target(rules, e);
    if (!target.has_value()) continue;  // drop / to-controller / host port
    const auto idx = index.find(table_key(target->first, target->second));
    if (idx == index.end()) continue;
    for (const auto& out_cube : out_space(v).cubes()) {
      candidates.clear();
      idx->second.collect(out_cube, candidates);
      for (const VertexId w : candidates) {
        if (w == v || seen[static_cast<std::size_t>(w)]) continue;
        bool hit = false;
        for (const auto& in_cube : in_space(w).cubes()) {
          if (out_cube.intersects(in_cube)) {
            hit = true;
            break;
          }
        }
        if (hit) {
          seen[static_cast<std::size_t>(w)] = 1;
          marked.push_back(w);
          adj_[static_cast<std::size_t>(v)].push_back(w);
          radj_[static_cast<std::size_t>(w)].push_back(v);
          ++edge_count_;
        }
      }
    }
    for (const VertexId w : marked) seen[static_cast<std::size_t>(w)] = 0;
    marked.clear();
  }
}

void RuleGraph::detach_vertex(VertexId v) {
  auto& out_edges = adj_[static_cast<std::size_t>(v)];
  auto& in_edges = radj_[static_cast<std::size_t>(v)];
  for (const VertexId w : out_edges) {
    radj_[static_cast<std::size_t>(w)].erase_value(v);
  }
  for (const VertexId w : in_edges) {
    adj_[static_cast<std::size_t>(w)].erase_value(v);
  }
  edge_count_ -= out_edges.size() + in_edges.size();
  out_edges.clear();
  in_edges.clear();
}

void RuleGraph::connect_vertex(VertexId v) {
  const flow::FlowEntry& e = rules_->entry(entry_of(v));
  auto add_edge = [this](VertexId from, VertexId to) {
    adj_[static_cast<std::size_t>(from)].push_back(to);
    radj_[static_cast<std::size_t>(to)].push_back(from);
    ++edge_count_;
  };
  // Out-edges: candidates are the entries of the table v hands off to.
  if (const auto tgt = handoff_target(*rules_, e)) {
    for (const auto& q : rules_->table(tgt->first, tgt->second).entries()) {
      const VertexId w = vertex_for(q.id);
      if (w < 0 || w == v || !is_active(w)) continue;
      if (spaces_intersect(out_space(v), in_space(w))) add_edge(v, w);
    }
  }
  // In-edges: entries able to hand off to v's table — rules on neighboring
  // switches outputting toward e.switch, and same-switch goto rules.
  auto consider_pred = [&](const flow::FlowEntry& q) {
    const VertexId w = vertex_for(q.id);
    if (w < 0 || w == v || !is_active(w)) return;
    const auto tgt = handoff_target(*rules_, q);
    if (!tgt.has_value() || tgt->first != e.switch_id ||
        tgt->second != e.table_id) {
      return;
    }
    if (spaces_intersect(out_space(w), in_space(v))) add_edge(w, v);
  };
  for (const flow::SwitchId nb : rules_->topology().neighbors(e.switch_id)) {
    for (flow::TableId t = 0; t < rules_->table_count(nb); ++t) {
      for (const auto& q : rules_->table(nb, t).entries()) consider_pred(q);
    }
  }
  for (flow::TableId t = 0; t < rules_->table_count(e.switch_id); ++t) {
    for (const auto& q : rules_->table(e.switch_id, t).entries()) {
      if (q.action.type == flow::ActionType::kGotoTable) consider_pred(q);
    }
  }
}

void RuleGraph::grow_entry_maps(flow::EntryId id) {
  if (vertex_of_entry_.size() <= static_cast<std::size_t>(id)) {
    vertex_of_entry_.resize(static_cast<std::size_t>(id) + 1, -1);
    slot_of_entry_.resize(static_cast<std::size_t>(id) + 1, -1);
  }
}

VertexId RuleGraph::append_vertex(flow::EntryId id, hsa::HeaderSpace in) {
  const VertexId v = static_cast<VertexId>(entry_of_.size());
  entry_of_.push_back(id);
  vertex_of_entry_[static_cast<std::size_t>(id)] = v;
  slot_of_entry_[static_cast<std::size_t>(id)] = v;
  out_.push_back(in.transform(rules_->entry(id).set_field));
  in_.push_back(std::move(in));
  adj_.emplace_back();
  radj_.emplace_back();
  return v;
}

void RuleGraph::deactivate_vertex(VertexId v) {
  const int width = rules_->header_width();
  in_[static_cast<std::size_t>(v)] = hsa::HeaderSpace(width);
  out_[static_cast<std::size_t>(v)] = hsa::HeaderSpace(width);
  vertex_of_entry_[static_cast<std::size_t>(
      entry_of_[static_cast<std::size_t>(v)])] = -1;
}

void RuleGraph::refresh_entry(flow::EntryId q,
                              std::vector<VertexId>* touched) {
  hsa::HeaderSpace in = rules_->input_space(q);
  const VertexId vq = vertex_for(q);
  if (in.is_empty()) {
    if (vq < 0) return;  // dead before, dead after
    detach_vertex(vq);
    deactivate_vertex(vq);
    dead_entries_.push_back(q);
    if (touched) touched->push_back(vq);
    return;
  }
  VertexId v = vq;
  if (v < 0) {
    // Resurrection: a fully shadowed entry regained input space. Reuse its
    // old slot when it ever had one, so vertex ids stay stable for
    // long-lived consumers (probe sets index the graph by VertexId).
    dead_entries_.erase(
        std::remove(dead_entries_.begin(), dead_entries_.end(), q),
        dead_entries_.end());
    v = slot_of_entry_[static_cast<std::size_t>(q)];
    if (v >= 0) {
      vertex_of_entry_[static_cast<std::size_t>(q)] = v;
      out_[static_cast<std::size_t>(v)] =
          in.transform(rules_->entry(q).set_field);
      in_[static_cast<std::size_t>(v)] = std::move(in);
    } else {
      v = append_vertex(q, std::move(in));
    }
  } else {
    detach_vertex(v);
    out_[static_cast<std::size_t>(v)] =
        in.transform(rules_->entry(q).set_field);
    in_[static_cast<std::size_t>(v)] = std::move(in);
  }
  connect_vertex(v);
  if (touched) touched->push_back(v);
}

VertexId RuleGraph::apply_entry_added(flow::EntryId id,
                                      std::vector<VertexId>* touched) {
  SDNPROBE_CHECK_GE(id, 0);
  SDNPROBE_CHECK_LT(static_cast<std::size_t>(id), rules_->entry_count())
      << "apply_entry_added must follow RuleSet::add_entry on the same set";
  grow_entry_maps(id);
  const flow::FlowEntry& e = rules_->entry(id);

  // 1. Same-table lower-priority overlapping entries: their input spaces
  //    shrank; recompute spaces and incident edges (possibly deactivating).
  for (const auto& q : rules_->table(e.switch_id, e.table_id).entries()) {
    if (q.id == id || q.priority >= e.priority) continue;
    if (!q.match.intersects(e.match)) continue;
    if (vertex_for(q.id) < 0) continue;  // already dead; shrinking keeps it so
    refresh_entry(q.id, touched);
  }

  // 2. The new entry itself.
  hsa::HeaderSpace in = rules_->input_space(id);
  if (in.is_empty()) {
    dead_entries_.push_back(id);
    return -1;
  }
  const VertexId v = append_vertex(id, std::move(in));
  connect_vertex(v);
  if (touched) touched->push_back(v);
  return v;
}

std::vector<VertexId> RuleGraph::apply_entry_removed(flow::EntryId id) {
  SDNPROBE_CHECK_GE(id, 0);
  SDNPROBE_CHECK_LT(static_cast<std::size_t>(id), rules_->entry_count())
      << "apply_entry_removed must follow RuleSet::remove_entry on the same "
         "set";
  SDNPROBE_CHECK(rules_->is_removed(id))
      << "call RuleSet::remove_entry before apply_entry_removed";
  grow_entry_maps(id);
  std::vector<VertexId> touched;
  // The tombstoned entry keeps its fields; they define the affected region.
  const flow::FlowEntry& e = rules_->entry(id);

  // 1. The removed entry's own vertex: edges gone, slot retained. A removed
  //    entry is not a lintable dead rule, so it leaves the dead list too.
  const VertexId v = vertex_for(id);
  if (v >= 0) {
    detach_vertex(v);
    deactivate_vertex(v);
    touched.push_back(v);
  } else {
    dead_entries_.erase(
        std::remove(dead_entries_.begin(), dead_entries_.end(), id),
        dead_entries_.end());
  }

  // 2. Same-table overlapping entries the removed rule used to beat in
  //    lookup — strictly lower priority, or equal priority inserted later
  //    (= larger id; table order among equals is insertion order) — regain
  //    the space it was shadowing: spaces grow, edges may appear, and
  //    entries it had fully shadowed come back to life.
  for (const auto& q : rules_->table(e.switch_id, e.table_id).entries()) {
    if (q.priority > e.priority ||
        (q.priority == e.priority && q.id < e.id)) {
      continue;  // preceded the removed rule: its input space never saw e
    }
    if (!q.match.intersects(e.match)) continue;
    refresh_entry(q.id, &touched);
  }
  return touched;
}

VertexId RuleGraph::vertex_for(flow::EntryId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= vertex_of_entry_.size()) {
    return -1;
  }
  return vertex_of_entry_[static_cast<std::size_t>(id)];
}

hsa::HeaderSpace RuleGraph::propagate(const hsa::HeaderSpace& incoming,
                                      VertexId v) const {
  SDNPROBE_DCHECK_EQ(incoming.width(), rules_->header_width());
  return incoming.intersect(in_space(v))
      .transform(rules_->entry(entry_of(v)).set_field);
}

hsa::HeaderSpace RuleGraph::path_output_space(
    const std::vector<VertexId>& path) const {
  hsa::HeaderSpace hs = hsa::HeaderSpace::full(rules_->header_width());
  for (const VertexId v : path) {
    hs = propagate(hs, v);
    if (hs.is_empty()) break;
  }
  return hs;
}

hsa::HeaderSpace RuleGraph::path_input_space(
    const std::vector<VertexId>& path) const {
  // Backward propagation: S := T^{-1}(S, v.s) ∩ v.in, from last to first.
  hsa::HeaderSpace hs = hsa::HeaderSpace::full(rules_->header_width());
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const auto& e = rules_->entry(entry_of(*it));
    hs = hs.inverse_transform(e.set_field).intersect(in_space(*it));
    if (hs.is_empty()) break;
  }
  return hs;
}

bool RuleGraph::is_legal_path(const std::vector<VertexId>& path) const {
  return !path_output_space(path).is_empty();
}

bool RuleGraph::is_acyclic() const {
  const int V = vertex_count();
  std::vector<int> indegree(static_cast<std::size_t>(V), 0);
  for (VertexId v = 0; v < V; ++v) {
    for (const VertexId w : successors(v)) {
      ++indegree[static_cast<std::size_t>(w)];
    }
  }
  std::queue<VertexId> q;
  for (VertexId v = 0; v < V; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) q.push(v);
  }
  int processed = 0;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    ++processed;
    for (const VertexId w : successors(v)) {
      if (--indegree[static_cast<std::size_t>(w)] == 0) q.push(w);
    }
  }
  return processed == V;
}

std::vector<std::vector<VertexId>> RuleGraph::closure_edges(
    std::size_t max_paths_per_vertex) const {
  const int V = vertex_count();
  std::vector<std::vector<VertexId>> closure(static_cast<std::size_t>(V));
  // DFS from each vertex propagating the legal header space.
  struct Frame {
    VertexId v;
    hsa::HeaderSpace hs;
  };
  for (VertexId u = 0; u < V; ++u) {
    std::vector<std::uint8_t> reached(static_cast<std::size_t>(V), 0);
    std::vector<Frame> stack;
    std::size_t budget = max_paths_per_vertex;
    stack.push_back(
        Frame{u, propagate(hsa::HeaderSpace::full(rules_->header_width()), u)});
    while (!stack.empty() && budget > 0) {
      Frame f = std::move(stack.back());
      stack.pop_back();
      for (const VertexId w : successors(f.v)) {
        hsa::HeaderSpace next = propagate(f.hs, w);
        if (next.is_empty()) continue;
        --budget;
        if (!reached[static_cast<std::size_t>(w)]) {
          reached[static_cast<std::size_t>(w)] = 1;
          closure[static_cast<std::size_t>(u)].push_back(w);
        }
        stack.push_back(Frame{w, std::move(next)});
        if (budget == 0) break;
      }
    }
  }
  return closure;
}

}  // namespace sdnprobe::core

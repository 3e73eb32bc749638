#include "core/analysis_snapshot.h"

#include <algorithm>
#include <sstream>
#include <string>

namespace sdnprobe::core {
namespace {

std::vector<std::vector<VertexId>> build_fanin_order(const RuleGraph& g) {
  const int V = g.vertex_count();
  std::vector<std::vector<VertexId>> ordered(static_cast<std::size_t>(V));
  for (VertexId v = 0; v < V; ++v) {
    const auto span = g.successors(v);
    std::vector<VertexId> succ(span.begin(), span.end());
    std::stable_sort(succ.begin(), succ.end(), [&g](VertexId a, VertexId b) {
      return g.predecessors(a).size() < g.predecessors(b).size();
    });
    ordered[static_cast<std::size_t>(v)] = std::move(succ);
  }
  return ordered;
}

std::vector<std::vector<VertexId>> build_ingress_index(const RuleGraph& g) {
  std::vector<std::vector<VertexId>> ingress(
      static_cast<std::size_t>(g.rules().switch_count()));
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (!g.is_active(v)) continue;
    const flow::FlowEntry& e = g.rules().entry(g.entry_of(v));
    if (e.table_id != 0) continue;
    ingress[static_cast<std::size_t>(e.switch_id)].push_back(v);
  }
  return ingress;  // ascending per switch: v iterates in order
}

}  // namespace

AnalysisSnapshot::AnalysisSnapshot(const RuleGraph& graph)
    : graph_(&graph),
      full_(hsa::HeaderSpace::full(graph.rules().header_width())),
      succ_by_fanin_(build_fanin_order(graph)),
      ingress_(build_ingress_index(graph)) {}

AnalysisSnapshot AnalysisSnapshot::build(const flow::RuleSet& rules) {
  auto owned = std::make_shared<const RuleGraph>(rules);
  AnalysisSnapshot snapshot(*owned);
  snapshot.owned_ = std::move(owned);
  return snapshot;
}

AnalysisSnapshot AnalysisSnapshot::adopt(RuleGraph graph) {
  auto owned = std::make_shared<const RuleGraph>(std::move(graph));
  AnalysisSnapshot snapshot(*owned);
  snapshot.owned_ = std::move(owned);
  return snapshot;
}

namespace {

// Semantic signature of the entry behind `v`: everything that defines its
// forwarding behaviour, nothing that depends on when it was installed.
std::string entry_signature(const AnalysisSnapshot& snap, VertexId v) {
  const flow::FlowEntry& e = snap.rules().entry(snap.entry_of(v));
  std::ostringstream os;
  os << e.switch_id << '|' << e.table_id << '|' << e.priority << '|'
     << e.match.to_string() << '|' << e.set_field.to_string() << '|'
     << static_cast<int>(e.action.type) << ':' << e.action.out_port << ':'
     << e.action.next_table << '|' << (e.is_test_entry ? 't' : 'p');
  return os.str();
}

// Cube strings sorted, so equal spaces built by different subtraction
// orders (full rebuild vs. incremental delta) render identically.
void append_space(std::ostringstream& os, const hsa::HeaderSpace& hs) {
  std::vector<std::string> cubes;
  for (const hsa::TernaryString& c : hs.cubes()) cubes.push_back(c.to_string());
  std::sort(cubes.begin(), cubes.end());
  for (const std::string& c : cubes) os << c << ',';
}

}  // namespace

std::string canonical_fingerprint(const AnalysisSnapshot& snap) {
  std::vector<std::string> lines;
  for (VertexId v = 0; v < snap.vertex_count(); ++v) {
    if (!snap.is_active(v)) continue;
    std::ostringstream os;
    os << entry_signature(snap, v) << "|in:";
    append_space(os, snap.in_space(v));
    os << "|out:";
    append_space(os, snap.out_space(v));
    os << "|succ:";
    std::vector<std::string> succ;
    for (const VertexId w : snap.successors(v)) {
      if (snap.is_active(w)) succ.push_back(entry_signature(snap, w));
    }
    std::sort(succ.begin(), succ.end());
    for (const std::string& s : succ) os << s << ';';
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const std::string& l : lines) out << l << '\n';
  return out.str();
}

}  // namespace sdnprobe::core

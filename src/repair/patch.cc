#include "repair/patch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace sdnprobe::repair {
namespace {

// Fraction of the full header space one cube covers: 2^-(fixed bits).
double cube_fraction(const hsa::TernaryString& cube) {
  const int fixed = cube.width() - cube.wildcard_count();
  return std::ldexp(1.0, -fixed);
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kReinstallFromIntent:
      return "reinstall-from-intent";
    case Strategy::kShadowTighten:
      return "shadow-tighten";
    case Strategy::kRerouteAround:
      return "reroute-around";
  }
  return "unknown";
}

int PatchSynthesizer::max_priority(flow::SwitchId sw,
                                   flow::TableId table) const {
  const flow::RuleSet& rules = snapshot_->rules();
  if (table >= rules.table_count(sw)) return 0;
  int best = 0;
  for (const flow::FlowEntry& e : rules.table(sw, table).entries()) {
    best = std::max(best, e.priority);
  }
  return best;
}

void PatchSynthesizer::finish_score(Patch* p) {
  std::set<flow::SwitchId> switches;
  double volume = 0.0;
  for (const monitor::ChurnOp& op : p->ops) {
    if (op.kind != monitor::ChurnOp::Kind::kInstall) continue;
    switches.insert(op.entry.switch_id);
    volume += cube_fraction(op.entry.match);
  }
  p->switches_modified = static_cast<int>(switches.size());
  p->volume_fraction = std::min(volume, 1.0);
  p->blast_radius = p->switches_modified + p->volume_fraction;
}

std::optional<Patch> PatchSynthesizer::reinstall_from_intent(
    const FaultDiagnosis& d) const {
  const flow::RuleSet& rules = snapshot_->rules();
  Patch p;
  p.strategy = Strategy::kReinstallFromIntent;
  for (const Suspect& s : d.suspects) {
    if (rules.is_removed(s.entry_id)) continue;
    flow::FlowEntry intent = rules.entry(s.entry_id);
    intent.id = -1;  // the monitor assigns a fresh id on install
    p.ops.push_back(monitor::ChurnOp::remove(s.entry_id));
    p.ops.push_back(monitor::ChurnOp::install(std::move(intent)));
  }
  if (p.ops.empty()) return std::nullopt;
  finish_score(&p);
  std::ostringstream os;
  os << "reinstall " << p.ops.size() / 2 << " suspect entr"
     << (p.ops.size() / 2 == 1 ? "y" : "ies") << " from controller intent on "
     << "switch " << d.switch_id;
  p.description = os.str();
  return p;
}

std::optional<Patch> PatchSynthesizer::shadow_tighten(
    const FaultDiagnosis& d) const {
  const flow::RuleSet& rules = snapshot_->rules();
  Patch p;
  p.strategy = Strategy::kShadowTighten;
  // Twins installed in one table must not tie with each other; track the
  // running maximum per table so each twin lands strictly above.
  std::map<std::pair<flow::SwitchId, flow::TableId>, int> next_prio;
  for (const Suspect& s : d.suspects) {
    if (rules.is_removed(s.entry_id)) continue;
    flow::FlowEntry twin = rules.entry(s.entry_id);
    const auto key = std::make_pair(twin.switch_id, twin.table_id);
    auto it = next_prio.find(key);
    if (it == next_prio.end()) {
      it = next_prio
               .emplace(key, max_priority(twin.switch_id, twin.table_id))
               .first;
    }
    it->second += config_.priority_boost;
    twin.id = -1;
    twin.priority = it->second;
    p.ops.push_back(monitor::ChurnOp::install(std::move(twin)));
  }
  if (p.ops.empty()) return std::nullopt;
  finish_score(&p);
  std::ostringstream os;
  os << "shadow " << p.ops.size() << " suspect entr"
     << (p.ops.size() == 1 ? "y" : "ies") << " with clean higher-priority "
     << "twins on switch " << d.switch_id;
  p.description = os.str();
  return p;
}

std::optional<Patch> PatchSynthesizer::reroute_around(
    const FaultDiagnosis& d) const {
  const core::AnalysisSnapshot& snap = *snapshot_;
  const flow::RuleSet& rules = snap.rules();
  if (d.suspects.empty()) return std::nullopt;
  const flow::EntryId suspect = d.suspects.front().entry_id;
  if (rules.is_removed(suspect)) return std::nullopt;
  const core::VertexId v = snap.vertex_for(suspect);
  if (v < 0 || !snap.is_active(v)) return std::nullopt;
  const flow::SwitchId faulty_sw = d.switch_id;
  const std::optional<flow::SwitchId> dest = rules.next_switch(suspect);
  if (!dest.has_value()) return std::nullopt;  // drop/host/goto: no next hop

  // Topology with the faulty switch excised: detour paths must avoid it.
  const topo::Graph& topo = snap.topology();
  topo::Graph filtered(topo.node_count());
  for (const topo::Edge& e : topo.edges()) {
    if (e.a == faulty_sw || e.b == faulty_sw) continue;
    filtered.add_edge(e.a, e.b, e.latency_s);
  }

  // Upstream interception points: the suspect's rule-graph predecessors on
  // other switches. Traffic entering the fault *at* the faulty switch
  // itself cannot be intercepted without touching it, so bail if any
  // predecessor lives there — a reroute that covers half the traffic would
  // pass its own confirm probes while real traffic still dies.
  std::vector<core::VertexId> preds;
  for (const core::VertexId u : snap.predecessors(v)) {
    if (!snap.is_active(u)) continue;
    if (rules.entry(snap.entry_of(u)).switch_id == faulty_sw) {
      return std::nullopt;
    }
    preds.push_back(u);
  }
  if (preds.empty() || preds.size() > config_.max_predecessors) {
    return std::nullopt;
  }

  Patch p;
  p.strategy = Strategy::kRerouteAround;
  p.quarantines = true;
  // Dedupe covering entries along shared detour segments.
  std::set<std::pair<flow::SwitchId, std::string>> placed;
  std::map<std::pair<flow::SwitchId, flow::TableId>, int> next_prio;
  auto bump_priority = [&](flow::SwitchId sw, flow::TableId t) {
    const auto key = std::make_pair(sw, t);
    auto it = next_prio.find(key);
    if (it == next_prio.end()) {
      it = next_prio.emplace(key, max_priority(sw, t)).first;
    }
    it->second += config_.priority_boost;
    return it->second;
  };

  for (const core::VertexId u : preds) {
    const flow::FlowEntry& ue = rules.entry(snap.entry_of(u));
    const flow::SwitchId from = ue.switch_id;
    const topo::Path alt = filtered.shortest_path(from, *dest);
    if (alt.empty() || alt.nodes.size() < 2) return std::nullopt;

    // The suspect's traffic arriving from u, expressed pre-transform at u:
    // for each cube of the suspect's input space, pull it back through u's
    // set field and clip to u's own input space.
    std::vector<hsa::TernaryString> cover;
    for (const hsa::TernaryString& c : snap.in_space(v).cubes()) {
      const std::optional<hsa::TernaryString> pre =
          c.inverse_transform(ue.set_field);
      if (!pre.has_value()) continue;
      for (const hsa::TernaryString& a : snap.in_space(u).cubes()) {
        if (const auto i = a.intersect(*pre); i.has_value()) {
          cover.push_back(*i);
        }
      }
    }
    if (cover.empty() || cover.size() > config_.max_reroute_cubes) {
      return std::nullopt;
    }

    for (const hsa::TernaryString& cube : cover) {
      // Interception entry at the upstream switch: same table and set field
      // as u, above everything, steering onto the detour's first link.
      const std::optional<flow::PortId> port0 =
          rules.ports().port_to(from, alt.nodes[1]);
      if (!port0.has_value()) return std::nullopt;
      if (placed.emplace(from, cube.to_string() + "#" +
                                   std::to_string(ue.table_id))
              .second) {
        flow::FlowEntry inter;
        inter.id = -1;
        inter.switch_id = from;
        inter.table_id = ue.table_id;
        inter.priority = bump_priority(from, ue.table_id);
        inter.match = cube;
        inter.set_field = ue.set_field;
        inter.action = flow::Action::output(*port0);
        p.ops.push_back(monitor::ChurnOp::install(std::move(inter)));
      }
      // Relay entries along the detour's interior, matching the cube as it
      // looks after u's transform (identity set fields from there on, so
      // the header is unchanged hop to hop until `dest` resumes normal
      // processing).
      const hsa::TernaryString wire = cube.transform(ue.set_field);
      for (std::size_t i = 1; i + 1 < alt.nodes.size(); ++i) {
        const flow::SwitchId w = alt.nodes[i];
        const std::optional<flow::PortId> port =
            rules.ports().port_to(w, alt.nodes[i + 1]);
        if (!port.has_value()) return std::nullopt;
        if (!placed.emplace(w, wire.to_string() + "#0").second) continue;
        flow::FlowEntry relay;
        relay.id = -1;
        relay.switch_id = w;
        relay.table_id = 0;
        relay.priority = bump_priority(w, 0);
        relay.match = wire;
        relay.set_field = hsa::TernaryString::wildcard(wire.width());
        relay.action = flow::Action::output(*port);
        p.ops.push_back(monitor::ChurnOp::install(std::move(relay)));
      }
    }
  }
  if (p.ops.empty()) return std::nullopt;
  finish_score(&p);
  std::ostringstream os;
  os << "reroute " << preds.size() << " upstream flow"
     << (preds.size() == 1 ? "" : "s") << " around switch " << faulty_sw
     << " toward switch " << *dest << " (" << p.ops.size()
     << " covering entries)";
  p.description = os.str();
  return p;
}

std::vector<Patch> PatchSynthesizer::synthesize(const FaultDiagnosis& d) const {
  std::vector<Patch> out;
  auto push = [&out](std::optional<Patch> p) {
    if (p.has_value()) out.push_back(std::move(*p));
  };
  // Preference order by class: a detour wants the partner's influence cut
  // (reroute) before trusting a reinstall; everything else tries the
  // narrowest restore first. The engine re-ranks survivors by blast radius
  // with this order as the tiebreak.
  if (d.fault_class == FaultClass::kDetourInsertion) {
    push(reroute_around(d));
    push(reinstall_from_intent(d));
    push(shadow_tighten(d));
  } else {
    push(reinstall_from_intent(d));
    push(shadow_tighten(d));
    push(reroute_around(d));
  }
  return out;
}

}  // namespace sdnprobe::repair

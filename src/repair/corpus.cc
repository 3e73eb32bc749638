#include "repair/corpus.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sdnprobe::repair {
namespace {

constexpr const char* kMagic = "sdnprobe.scenario.v1";

std::string action_to_tokens(const flow::Action& a) {
  std::ostringstream os;
  switch (a.type) {
    case flow::ActionType::kOutput:
      os << "output " << a.out_port;
      break;
    case flow::ActionType::kDrop:
      os << "drop";
      break;
    case flow::ActionType::kGotoTable:
      os << "goto " << a.next_table;
      break;
    case flow::ActionType::kToController:
      os << "controller";
      break;
  }
  return os.str();
}

bool parse_action(std::istringstream& is, flow::Action* out) {
  std::string word;
  if (!(is >> word)) return false;
  if (word == "output") {
    flow::PortId port = flow::kInvalidPort;
    if (!(is >> port)) return false;
    *out = flow::Action::output(port);
  } else if (word == "drop") {
    *out = flow::Action::drop();
  } else if (word == "goto") {
    flow::TableId t = -1;
    if (!(is >> t)) return false;
    *out = flow::Action::goto_table(t);
  } else if (word == "controller") {
    *out = flow::Action::to_controller();
  } else {
    return false;
  }
  return true;
}

std::string spec_to_tokens(const dataplane::FaultSpec& f) {
  std::ostringstream os;
  switch (f.kind) {
    case dataplane::FaultKind::kDrop:
      os << "kind=drop";
      break;
    case dataplane::FaultKind::kMisdirect:
      os << "kind=misdirect port=" << f.misdirect_port;
      break;
    case dataplane::FaultKind::kModify:
      os << "kind=modify set=" << f.modify_set.to_string();
      break;
    case dataplane::FaultKind::kDetour:
      os << "kind=detour partner=" << f.detour_partner
         << " extra=" << f.detour_extra_latency_s;
      break;
  }
  if (f.is_intermittent) {
    os << " period=" << f.period_s << " duty=" << f.duty_cycle
       << " phase=" << f.phase_s;
  }
  if (f.target.width() > 0) os << " target=" << f.target.to_string();
  return os.str();
}

bool parse_spec(std::istringstream& is, dataplane::FaultSpec* out) {
  dataplane::FaultSpec f;
  bool have_kind = false;
  bool intermittent = false;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    std::istringstream vs(val);
    if (key == "kind") {
      have_kind = true;
      if (val == "drop") {
        f.kind = dataplane::FaultKind::kDrop;
      } else if (val == "misdirect") {
        f.kind = dataplane::FaultKind::kMisdirect;
      } else if (val == "modify") {
        f.kind = dataplane::FaultKind::kModify;
      } else if (val == "detour") {
        f.kind = dataplane::FaultKind::kDetour;
      } else {
        return false;
      }
    } else if (key == "port") {
      if (!(vs >> f.misdirect_port)) return false;
    } else if (key == "set") {
      const auto t = hsa::TernaryString::parse(val);
      if (!t.has_value()) return false;
      f.modify_set = *t;
    } else if (key == "partner") {
      if (!(vs >> f.detour_partner)) return false;
    } else if (key == "extra") {
      if (!(vs >> f.detour_extra_latency_s)) return false;
    } else if (key == "period") {
      intermittent = true;
      if (!(vs >> f.period_s)) return false;
    } else if (key == "duty") {
      intermittent = true;
      if (!(vs >> f.duty_cycle)) return false;
    } else if (key == "phase") {
      intermittent = true;
      if (!(vs >> f.phase_s)) return false;
    } else if (key == "target") {
      const auto t = hsa::TernaryString::parse(val);
      if (!t.has_value()) return false;
      f.target = *t;
    } else {
      return false;
    }
  }
  f.is_intermittent = intermittent;
  if (!have_kind) return false;
  *out = f;
  return true;
}

// Semantic pass over a syntactically valid scenario: every reference must
// land inside the world it describes, or build_ruleset / install_faults
// would hit a failed check (or silently replay the wrong fault).
bool references_in_range(const Scenario& s) {
  if (s.header_width < 1 || s.header_width > hsa::TernaryString::kMaxWidth ||
      s.nodes < 0) {
    return false;
  }
  const auto is_switch = [&s](int sw) { return sw >= 0 && sw < s.nodes; };
  for (const topo::Edge& e : s.edges) {
    if (!is_switch(e.a) || !is_switch(e.b)) return false;
  }
  for (const flow::FlowEntry& e : s.entries) {
    if (!is_switch(e.switch_id) || e.table_id < 0 ||
        e.match.width() != s.header_width ||
        e.set_field.width() != s.header_width) {
      return false;
    }
  }
  for (const ScenarioFault& f : s.faults) {
    if (f.is_switch ? !is_switch(f.switch_id)
                    : f.entry_index < 0 ||
                          static_cast<std::size_t>(f.entry_index) >=
                              s.entries.size()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string serialize_scenario(const Scenario& s) {
  std::ostringstream os;
  os << kMagic << '\n';
  if (!s.note.empty()) os << "note " << s.note << '\n';
  if (!s.expect.empty()) os << "expect " << s.expect << '\n';
  os << "width " << s.header_width << '\n';
  os << "nodes " << s.nodes << '\n';
  for (const topo::Edge& e : s.edges) {
    os << "edge " << e.a << ' ' << e.b << ' ' << e.latency_s << '\n';
  }
  for (const flow::FlowEntry& e : s.entries) {
    os << "entry " << e.switch_id << ' ' << e.table_id << ' ' << e.priority
       << ' ' << e.match.to_string() << ' ' << e.set_field.to_string() << ' '
       << action_to_tokens(e.action) << '\n';
  }
  for (const ScenarioFault& f : s.faults) {
    if (f.is_switch) {
      os << "fault switch " << f.switch_id << ' ' << spec_to_tokens(f.spec)
         << '\n';
    } else {
      os << "fault entry " << f.entry_index << ' ' << spec_to_tokens(f.spec)
         << '\n';
    }
  }
  return os.str();
}

std::optional<Scenario> parse_scenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return std::nullopt;
  Scenario s;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "note") {
      std::string rest;
      std::getline(is, rest);
      const std::size_t start = rest.find_first_not_of(' ');
      s.note = start == std::string::npos ? "" : rest.substr(start);
    } else if (key == "expect") {
      if (!(is >> s.expect)) return std::nullopt;
    } else if (key == "width") {
      if (!(is >> s.header_width)) return std::nullopt;
    } else if (key == "nodes") {
      if (!(is >> s.nodes)) return std::nullopt;
    } else if (key == "edge") {
      topo::Edge e;
      if (!(is >> e.a >> e.b >> e.latency_s)) return std::nullopt;
      s.edges.push_back(e);
    } else if (key == "entry") {
      flow::FlowEntry e;
      std::string match;
      std::string set;
      if (!(is >> e.switch_id >> e.table_id >> e.priority >> match >> set)) {
        return std::nullopt;
      }
      const auto m = hsa::TernaryString::parse(match);
      const auto sf = hsa::TernaryString::parse(set);
      if (!m.has_value() || !sf.has_value()) return std::nullopt;
      e.match = *m;
      e.set_field = *sf;
      if (!parse_action(is, &e.action)) return std::nullopt;
      s.entries.push_back(std::move(e));
    } else if (key == "fault") {
      ScenarioFault f;
      std::string scope;
      if (!(is >> scope)) return std::nullopt;
      if (scope == "entry") {
        f.is_switch = false;
        if (!(is >> f.entry_index)) return std::nullopt;
      } else if (scope == "switch") {
        f.is_switch = true;
        if (!(is >> f.switch_id)) return std::nullopt;
      } else {
        return std::nullopt;
      }
      if (!parse_spec(is, &f.spec)) return std::nullopt;
      s.faults.push_back(std::move(f));
    } else {
      return std::nullopt;
    }
  }
  if (!references_in_range(s)) return std::nullopt;
  return s;
}

bool save_scenario_file(const Scenario& s, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize_scenario(s);
  return static_cast<bool>(out);
}

std::optional<Scenario> load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario(buf.str());
}

Scenario capture_scenario(const flow::RuleSet& rules,
                          const dataplane::FaultInjector& faults,
                          std::string note, std::string expect) {
  Scenario s;
  s.note = std::move(note);
  s.expect = std::move(expect);
  s.header_width = rules.header_width();
  s.nodes = rules.topology().node_count();
  s.edges = rules.topology().edges();
  // Dense remap: live EntryIds (with tombstone gaps) -> entry line indices.
  std::map<flow::EntryId, int> remap;
  for (flow::EntryId id = 0;
       static_cast<std::size_t>(id) < rules.entry_count(); ++id) {
    if (rules.is_removed(id)) continue;
    const flow::FlowEntry& e = rules.entry(id);
    if (e.is_test_entry) continue;  // prober artifacts, not policy
    remap[id] = static_cast<int>(s.entries.size());
    s.entries.push_back(e);
  }
  for (const flow::EntryId id : faults.faulty_entries()) {
    const auto it = remap.find(id);
    if (it == remap.end()) continue;  // fault on a removed/test entry
    ScenarioFault f;
    f.is_switch = false;
    f.entry_index = it->second;
    f.spec = *faults.fault_for(id);
    s.faults.push_back(std::move(f));
  }
  for (const flow::SwitchId sw : faults.faulty_switch_ids()) {
    ScenarioFault f;
    f.is_switch = true;
    f.switch_id = sw;
    f.spec = *faults.switch_fault_for(sw);
    s.faults.push_back(std::move(f));
  }
  return s;
}

flow::RuleSet build_ruleset(const Scenario& s) {
  topo::Graph g(s.nodes);
  for (const topo::Edge& e : s.edges) g.add_edge(e.a, e.b, e.latency_s);
  flow::RuleSet rules(std::move(g), s.header_width);
  for (const flow::FlowEntry& e : s.entries) {
    flow::FlowEntry copy = e;
    copy.id = -1;
    rules.add_entry(std::move(copy));  // assigns ids 0,1,2,... in line order
  }
  return rules;
}

void install_faults(const Scenario& s, dataplane::FaultInjector& injector) {
  for (const ScenarioFault& f : s.faults) {
    if (f.is_switch) {
      injector.add_switch_fault(f.switch_id, f.spec);
    } else {
      injector.add_fault(static_cast<flow::EntryId>(f.entry_index), f.spec);
    }
  }
}

}  // namespace sdnprobe::repair

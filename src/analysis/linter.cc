#include "analysis/linter.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "telemetry/trace.h"

namespace sdnprobe::analysis {
namespace {

using flow::FlowEntry;
using flow::RuleSet;
using flow::SwitchId;
using flow::TableId;

std::string join_ids(const std::vector<int>& ids) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) os << ',';
    os << ids[i];
  }
  return os.str();
}

Location entry_location(const FlowEntry& e) {
  return Location{e.switch_id, e.table_id, e.id};
}

bool valid_output_port(const RuleSet& rules, const FlowEntry& e) {
  // Ports 0..degree-1 reach neighbors; port degree is the host port.
  return e.action.out_port >= 0 &&
         e.action.out_port <= rules.ports().host_port(e.switch_id);
}

bool valid_goto_target(const RuleSet& rules, const FlowEntry& e) {
  const TableId t = e.action.next_table;
  return t >= 0 && t < rules.table_count(e.switch_id) &&
         !rules.table(e.switch_id, t).empty();
}

void add_shadowed_diagnostic(const RuleSet& rules, const FlowEntry& e,
                             LintReport& report) {
  // The entries that win lookup over e where they overlap it: every
  // overlapping entry earlier in table order, equal-priority ones included
  // (the set FlowTable::input_space subtracts).
  std::vector<int> covering;
  for (const FlowEntry& q : rules.table(e.switch_id, e.table_id).entries()) {
    if (q.id == e.id) break;
    if (q.match.intersects(e.match)) covering.push_back(q.id);
  }
  Diagnostic d;
  // Warning, not error: realistic destination-based rulesets legitimately
  // contain fully shadowed entries (longest-prefix aggregation plus route
  // diversity), traffic is still handled by the covering rules, and the
  // rule graph already excludes them as dead entries. They are dead weight
  // worth cleaning up, not a correctness defect.
  d.severity = Severity::kWarning;
  d.check = CheckId::kShadowedEntry;
  d.location = entry_location(e);
  d.message = "entry is fully shadowed by " +
              std::to_string(covering.size()) +
              " earlier overlapping entr" +
              (covering.size() == 1 ? "y" : "ies") +
              "; no packet can exercise it";
  d.payload.emplace_back("covered-by", join_ids(covering));
  report.add(std::move(d));
}

// Checks that at least one packet the entry emits can match *some* entry of
// the table it hands off to. `out` is the entry's output header space
// (r.out = T(r.in, r.s)).
void check_empty_match(const RuleSet& rules, const FlowEntry& e,
                       const hsa::HeaderSpace& out, LintReport& report) {
  const auto target = rules.handoff_target(e);
  if (!target.has_value()) return;  // terminal action
  if (e.action.type == flow::ActionType::kGotoTable &&
      !valid_goto_target(rules, e)) {
    return;  // dangling-goto already reported
  }
  const auto& next = rules.table(target->first, target->second);
  bool reachable = false;
  for (const auto& out_cube : out.cubes()) {
    for (const auto& q : next.entries()) {
      if (q.match.intersects(out_cube)) {
        reachable = true;
        break;
      }
    }
    if (reachable) break;
  }
  if (reachable) return;
  Diagnostic d;
  d.severity = Severity::kError;
  d.check = CheckId::kEmptyMatch;
  d.location = entry_location(e);
  std::ostringstream msg;
  msg << "effective match is empty downstream: after the set-field rewrite, "
         "no emitted packet matches any entry of table "
      << target->second << " on switch " << target->first
      << (next.empty() ? " (table is empty)" : "");
  d.message = msg.str();
  d.payload.emplace_back("target-switch", std::to_string(target->first));
  d.payload.emplace_back("target-table", std::to_string(target->second));
  report.add(std::move(d));
}

// Same-priority overlapping entries in one table: the tie-aware semantics
// (earlier-installed entry wins) make them deterministic, but the outcome
// depends on install order — almost always a configuration bug. One warning
// per later entry, naming the earlier entries it ties with.
void check_ambiguous_priority(const RuleSet& rules, LintReport& report) {
  for (SwitchId sw = 0; sw < rules.switch_count(); ++sw) {
    for (TableId t = 0; t < rules.table_count(sw); ++t) {
      const auto& entries = rules.table(sw, t).entries();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const FlowEntry& e = entries[i];
        std::vector<int> ties;
        // entries() is descending by priority with ties in insertion
        // order, so the same-priority group is contiguous ending at i.
        for (std::size_t j = i; j-- > 0;) {
          if (entries[j].priority != e.priority) break;
          if (entries[j].match.intersects(e.match)) {
            ties.push_back(entries[j].id);
          }
        }
        if (ties.empty()) continue;
        std::sort(ties.begin(), ties.end());
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.check = CheckId::kAmbiguousPriority;
        d.location = entry_location(e);
        d.message = "overlaps " + std::to_string(ties.size()) +
                    " earlier entr" + (ties.size() == 1 ? "y" : "ies") +
                    " at the same priority; which entry matches is decided "
                    "by install order";
        d.payload.emplace_back("ties-with", join_ids(ties));
        report.add(std::move(d));
      }
    }
  }
}

void check_dangling_actions(const RuleSet& rules, const FlowEntry& e,
                            LintReport& report) {
  if (e.action.type == flow::ActionType::kOutput &&
      !valid_output_port(rules, e)) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kDanglingOutput;
    d.location = entry_location(e);
    d.message = "output to port " + std::to_string(e.action.out_port) +
                " which has no link and no host (valid ports: 0.." +
                std::to_string(rules.ports().host_port(e.switch_id)) + ")";
    d.payload.emplace_back("port", std::to_string(e.action.out_port));
    report.add(std::move(d));
  }
  if (e.action.type == flow::ActionType::kGotoTable &&
      !valid_goto_target(rules, e)) {
    const TableId t = e.action.next_table;
    const bool missing = t < 0 || t >= rules.table_count(e.switch_id);
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kDanglingGoto;
    d.location = entry_location(e);
    d.message = std::string("goto-table to ") +
                (missing ? "missing" : "empty") + " table " +
                std::to_string(t);
    d.payload.emplace_back("target-table", std::to_string(t));
    report.add(std::move(d));
  }
}

// Per-switch goto-table graph: cycle detection (error) and tables no goto
// chain from table 0 reaches (warning).
void check_goto_structure(const RuleSet& rules, LintReport& report) {
  for (SwitchId sw = 0; sw < rules.switch_count(); ++sw) {
    const int n_tables = rules.table_count(sw);
    // edges[t] = deduplicated goto targets of entries in table t (only
    // targets that exist; dangling gotos are reported separately).
    std::vector<std::vector<TableId>> edges(
        static_cast<std::size_t>(n_tables));
    for (TableId t = 0; t < n_tables; ++t) {
      for (const auto& e : rules.table(sw, t).entries()) {
        if (e.action.type != flow::ActionType::kGotoTable) continue;
        const TableId next = e.action.next_table;
        if (next < 0 || next >= n_tables) continue;
        auto& out = edges[static_cast<std::size_t>(t)];
        if (std::find(out.begin(), out.end(), next) == out.end()) {
          out.push_back(next);
        }
      }
    }

    // Tri-color DFS for the first cycle.
    enum : std::uint8_t { kWhite, kGray, kBlack };
    std::vector<std::uint8_t> color(static_cast<std::size_t>(n_tables),
                                    kWhite);
    std::vector<TableId> stack;
    std::function<std::optional<std::vector<TableId>>(TableId)> dfs =
        [&](TableId t) -> std::optional<std::vector<TableId>> {
      color[static_cast<std::size_t>(t)] = kGray;
      stack.push_back(t);
      for (const TableId next : edges[static_cast<std::size_t>(t)]) {
        if (color[static_cast<std::size_t>(next)] == kGray) {
          // Cycle: suffix of the stack from `next` onward, closed by `t`.
          const auto it = std::find(stack.begin(), stack.end(), next);
          return std::vector<TableId>(it, stack.end());
        }
        if (color[static_cast<std::size_t>(next)] == kWhite) {
          if (auto cycle = dfs(next)) return cycle;
        }
      }
      stack.pop_back();
      color[static_cast<std::size_t>(t)] = kBlack;
      return std::nullopt;
    };
    for (TableId t = 0; t < n_tables; ++t) {
      if (color[static_cast<std::size_t>(t)] != kWhite) continue;
      if (auto cycle = dfs(t)) {
        Diagnostic d;
        d.severity = Severity::kError;
        d.check = CheckId::kGotoCycle;
        d.location = Location{sw, cycle->front(), -1};
        d.message = "goto-table cycle through " +
                    std::to_string(cycle->size()) + " table(s)";
        d.payload.emplace_back("cycle", join_ids(*cycle));
        report.add(std::move(d));
        break;  // one cycle report per switch
      }
    }

    // Reachability from table 0 over goto edges.
    std::vector<std::uint8_t> reachable(static_cast<std::size_t>(n_tables),
                                        0);
    std::vector<TableId> frontier{0};
    reachable[0] = 1;
    while (!frontier.empty()) {
      const TableId t = frontier.back();
      frontier.pop_back();
      for (const TableId next : edges[static_cast<std::size_t>(t)]) {
        if (!reachable[static_cast<std::size_t>(next)]) {
          reachable[static_cast<std::size_t>(next)] = 1;
          frontier.push_back(next);
        }
      }
    }
    for (TableId t = 1; t < n_tables; ++t) {
      if (reachable[static_cast<std::size_t>(t)] ||
          rules.table(sw, t).empty()) {
        continue;
      }
      Diagnostic d;
      d.severity = Severity::kWarning;
      d.check = CheckId::kUnreachableTable;
      d.location = Location{sw, t, -1};
      d.message = "table holds " +
                  std::to_string(rules.table(sw, t).size()) +
                  " entr(ies) but no goto chain from table 0 reaches it";
      report.add(std::move(d));
    }
  }
}

void check_topology(const RuleSet& rules, LintReport& report) {
  const topo::Graph& g = rules.topology();
  for (topo::NodeId a = 0; a < g.node_count(); ++a) {
    const auto& nbrs = g.neighbors(a);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const topo::NodeId b = nbrs[i];
      // Duplicate port binding: two ports of `a` lead to the same peer.
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (nbrs[j] == b) {
          Diagnostic d;
          d.severity = Severity::kError;
          d.check = CheckId::kTopologyDuplicatePort;
          d.location = Location{a, -1, -1};
          d.message = "ports " + std::to_string(i) + " and " +
                      std::to_string(j) + " both bind neighbor " +
                      std::to_string(b);
          d.payload.emplace_back("peer", std::to_string(b));
          report.add(std::move(d));
        }
      }
      // Asymmetric adjacency: a lists b but b does not list a.
      const auto& back = g.neighbors(b);
      if (std::find(back.begin(), back.end(), a) == back.end()) {
        Diagnostic d;
        d.severity = Severity::kError;
        d.check = CheckId::kTopologyAsymmetricLink;
        d.location = Location{a, -1, -1};
        d.message = "switch " + std::to_string(a) + " lists neighbor " +
                    std::to_string(b) + " but not vice versa";
        d.payload.emplace_back("peer", std::to_string(b));
        report.add(std::move(d));
      }
    }
  }
  if (g.node_count() > 1 && !g.is_connected()) {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.check = CheckId::kTopologyDisconnected;
    d.message = "topology is not connected; probes cannot cross partitions";
    report.add(std::move(d));
  }
}

// The structural battery: shadowing read off the graph's dead entries,
// r.out off its cached vertex spaces.
void lint_structural(const core::AnalysisSnapshot& snapshot,
                     LintReport& report) {
  const RuleSet& rules = snapshot.rules();
  for (SwitchId sw = 0; sw < rules.switch_count(); ++sw) {
    for (TableId t = 0; t < rules.table_count(sw); ++t) {
      for (const auto& e : rules.table(sw, t).entries()) {
        check_dangling_actions(rules, e, report);
        const core::VertexId v = snapshot.vertex_for(e.id);
        if (v < 0) {
          add_shadowed_diagnostic(rules, e, report);
        } else {
          check_empty_match(rules, e, snapshot.out_space(v), report);
        }
      }
    }
  }
  check_ambiguous_priority(rules, report);
  check_goto_structure(rules, report);
  check_topology(rules, report);
}

void lint_rule_graph(const core::AnalysisSnapshot& snapshot,
                     const LintConfig& config, LintReport& report) {
  const RuleSet& rules = snapshot.rules();

  if (const auto cycle = snapshot.graph().find_cycle(); !cycle.empty()) {
    std::vector<int> entry_ids;
    for (const core::VertexId v : cycle) {
      entry_ids.push_back(snapshot.entry_of(v));
    }
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kRuleGraphCycle;
    d.location = entry_location(rules.entry(entry_ids.front()));
    d.message = "rule graph has a directed cycle of " +
                std::to_string(cycle.size()) +
                " entr(ies); the policy can forward packets in a loop";
    d.payload.emplace_back("cycle-entries", join_ids(entry_ids));
    report.add(std::move(d));
  }

  for (core::VertexId v = 0; v < snapshot.vertex_count(); ++v) {
    if (!snapshot.is_active(v)) continue;
    if (!snapshot.in_space(v).is_empty() &&
        !snapshot.out_space(v).is_empty()) {
      continue;
    }
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kEmptyVertexSpace;
    d.location = entry_location(rules.entry(snapshot.entry_of(v)));
    d.message = "active rule-graph vertex has an empty legal header space";
    report.add(std::move(d));
  }

  // Witness cross-check: every edge's transfer function (out(u) ∩ in(w))
  // must admit a concrete header. The indexed build says it does (the edge
  // exists); a fresh intersection and its lex-min member must agree.
  if (config.edge_witness_budget == 0) return;
  std::size_t checked = 0;
  bool truncated = false;
  for (core::VertexId u = 0; u < snapshot.vertex_count() && !truncated; ++u) {
    for (const core::VertexId w : snapshot.successors(u)) {
      if (checked == config.edge_witness_budget) {
        truncated = true;
        break;
      }
      ++checked;
      const bool witness = snapshot.out_space(u)
                               .intersect(snapshot.in_space(w))
                               .min_member()
                               .has_value();
      if (witness) continue;
      Diagnostic d;
      d.severity = Severity::kError;
      d.check = CheckId::kUnsatEdge;
      d.location = entry_location(rules.entry(snapshot.entry_of(u)));
      d.message =
          "edge transfer function is unsatisfiable: no concrete header "
          "witnesses out(" +
          std::to_string(snapshot.entry_of(u)) + ") ∩ in(" +
          std::to_string(snapshot.entry_of(w)) + ")";
      d.payload.emplace_back("to-entry",
                             std::to_string(snapshot.entry_of(w)));
      report.add(std::move(d));
    }
  }
  if (truncated) {
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.check = CheckId::kUnsatEdge;
    // The wording is part of the lint output that reports are compared on.
    d.message = "SAT edge discharge truncated at " +
                std::to_string(config.edge_witness_budget) + " of " +
                std::to_string(snapshot.graph().edge_count()) + " edges";
    report.add(std::move(d));
  }
}

// Satellite of the telemetry subsystem (DESIGN.md §10): publishes one lint
// run's Diagnostic tallies to the global registry so lint results land in
// the same artifact stream as localizer/bench metrics. Per-check counters
// are named lint.diag.<check-name> (kebab-case ids from check_name()).
void record_lint_telemetry(const LintReport& report) {
  auto& reg = telemetry::MetricsRegistry::global();
  if (!reg.enabled()) return;
  reg.counter("lint.runs").add(1);
  reg.counter("lint.diagnostics").add(report.size());
  reg.counter("lint.errors").add(report.count(Severity::kError));
  reg.counter("lint.warnings").add(report.count(Severity::kWarning));
  reg.counter("lint.infos").add(report.count(Severity::kInfo));
  for (const Diagnostic& d : report.diagnostics()) {
    reg.counter(std::string("lint.diag.") + check_name(d.check)).add(1);
  }
}

}  // namespace

LintReport Linter::run(const core::AnalysisSnapshot& snapshot) const {
  telemetry::TraceSpan span("lint.run");
  LintReport report;
  lint_structural(snapshot, report);
  lint_rule_graph(snapshot, config_, report);
  report.sort();
  record_lint_telemetry(report);
  return report;
}

namespace {

std::string lint_error_summary(const LintReport& report) {
  std::string msg = "strict lint rejected the ruleset: " +
                    std::to_string(report.count(Severity::kError)) +
                    " error(s)";
  for (const auto& d : report.diagnostics()) {
    if (d.severity == Severity::kError) {
      msg += "; first: " + d.to_string();
      break;
    }
  }
  return msg;
}

}  // namespace

LintError::LintError(LintReport report)
    : std::runtime_error(lint_error_summary(report)),
      report_(std::move(report)) {}

core::AnalysisSnapshot build_checked_snapshot(const flow::RuleSet& rules,
                                              const LintConfig& config,
                                              LintReport* report_out) {
  core::AnalysisSnapshot snapshot = core::AnalysisSnapshot::build(rules);
  LintReport report = Linter(config).run(snapshot);
  if (config.strict && report.has_errors()) {
    throw LintError(std::move(report));
  }
  if (!config.invariants.empty()) {
    Verifier verifier(config.invariants);
    const VerifyReport verify_report = verifier.verify(snapshot);
    const bool violated = verify_report.has_errors();
    for (const Diagnostic& d : verify_report.diagnostics()) report.add(d);
    report.sort();
    if (config.strict && violated) {
      throw LintError(std::move(report));
    }
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return snapshot;
}

}  // namespace sdnprobe::analysis

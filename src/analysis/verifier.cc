#include "analysis/verifier.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"

namespace sdnprobe::analysis {
namespace {

using core::VertexId;
using flow::EntryId;
using flow::FlowEntry;
using flow::SwitchId;

std::string join_ids(const std::vector<int>& ids) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) os << ',';
    os << ids[i];
  }
  return os.str();
}

// One equivalence class's verification: the built-in loop/blackhole walk
// plus one restricted walk per relevant reach-style invariant, sharing a
// footprint and a step budget. Pure function of the subgraph the footprint
// spans — the contract apply_delta's class reuse rests on.
class ClassWalk {
 public:
  ClassWalk(const core::AnalysisSnapshot& snap, const InvariantSet& invariants,
            const std::vector<std::uint8_t>& invalid,
            const VerifierConfig& config, VertexId seed)
      : snap_(snap),
        invariants_(invariants.invariants()),
        invalid_(invalid),
        seed_(seed),
        budget_(config.class_step_budget) {
    const auto v = static_cast<std::size_t>(snap.vertex_count());
    on_stack_.assign(v, 0);
    in_footprint_.assign(v, 0);
    loop_reported_.assign(v, 0);
    blackhole_reported_.assign(v, 0);
    result_.witnessed.assign(invariants_.size(), 0);
  }

  Verifier::ClassResult run() {
    const FlowEntry& seed_entry = entry(seed_);
    check_loops_ = false;
    check_blackholes_ = false;
    for (const Invariant& inv : invariants_) {
      check_loops_ |= inv.kind == InvariantKind::kLoopFree;
      check_blackholes_ |= inv.kind == InvariantKind::kBlackholeFree;
    }
    if (check_loops_ || check_blackholes_) {
      builtin_visit(seed_, snap_.in_space(seed_));
    }
    for (std::size_t i = 0; i < invariants_.size(); ++i) {
      const Invariant& inv = invariants_[i];
      if (invalid_[i]) continue;
      if (inv.kind != InvariantKind::kReach &&
          inv.kind != InvariantKind::kNoReach &&
          inv.kind != InvariantKind::kWaypoint) {
        continue;
      }
      if (inv.src != seed_entry.switch_id) continue;
      hsa::HeaderSpace init =
          inv.slice.has_value() ? snap_.in_space(seed_).intersect(*inv.slice)
                                : snap_.in_space(seed_);
      if (init.is_empty()) continue;
      bool done = false;
      reach_visit(i, inv, seed_, init,
                  /*seen_via=*/seed_entry.switch_id == inv.via, done);
    }
    std::sort(result_.footprint.begin(), result_.footprint.end());
    result_.steps = steps_;
    result_.truncated = truncated_;
    return std::move(result_);
  }

 private:
  const FlowEntry& entry(VertexId v) const {
    return snap_.rules().entry(snap_.entry_of(v));
  }

  Location location_of(VertexId v) const {
    const FlowEntry& e = entry(v);
    return Location{e.switch_id, e.table_id, e.id};
  }

  void mark(VertexId v) {
    auto& seen = in_footprint_[static_cast<std::size_t>(v)];
    if (seen) return;
    seen = 1;
    result_.footprint.push_back(v);
  }

  // Consumes one edge expansion; false (and truncation) once exhausted.
  bool take_step() {
    if (budget_ == 0) {
      truncated_ = true;
      return false;
    }
    --budget_;
    ++steps_;
    return true;
  }

  // Does the action hand packets to another flow table? kOutput to a
  // linkless non-host port blackholes everything it emits instead.
  enum class Terminal { kIntentional, kInvalidPort, kContinues };
  Terminal classify(const FlowEntry& e) const {
    switch (e.action.type) {
      case flow::ActionType::kDrop:
      case flow::ActionType::kToController:
        return Terminal::kIntentional;
      case flow::ActionType::kOutput: {
        if (e.action.out_port ==
            snap_.rules().ports().host_port(e.switch_id)) {
          return Terminal::kIntentional;  // egress to the attached host
        }
        const auto peer =
            snap_.rules().ports().peer_of(e.switch_id, e.action.out_port);
        return peer.has_value() ? Terminal::kContinues : Terminal::kInvalidPort;
      }
      case flow::ActionType::kGotoTable:
        return Terminal::kContinues;
    }
    return Terminal::kIntentional;
  }

  void report_loop(VertexId at, const hsa::HeaderSpace& space) {
    auto& reported = loop_reported_[static_cast<std::size_t>(at)];
    if (reported) return;
    reported = 1;
    const auto it = std::find(path_.begin(), path_.end(), at);
    std::vector<int> cycle_entries;
    for (auto p = it; p != path_.end(); ++p) {
      cycle_entries.push_back(entry(*p).id);
    }
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kForwardingLoop;
    d.location = location_of(at);
    d.message = "forwarding loop: the class's header space re-enters the "
                "entry after traversing " +
                std::to_string(cycle_entries.size()) + " hop(s)";
    d.payload.emplace_back("class-entry", std::to_string(entry(seed_).id));
    d.payload.emplace_back("cycle-entries", join_ids(cycle_entries));
    d.payload.emplace_back("space", space.to_string());
    result_.diagnostics.push_back(std::move(d));
  }

  void report_blackhole(VertexId at, const hsa::HeaderSpace& residual,
                        const char* why) {
    auto& reported = blackhole_reported_[static_cast<std::size_t>(at)];
    if (reported) return;
    reported = 1;
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = CheckId::kBlackhole;
    d.location = location_of(at);
    d.message = std::string("blackhole: ") + why;
    d.payload.emplace_back("class-entry", std::to_string(entry(seed_).id));
    d.payload.emplace_back("space", residual.to_string());
    result_.diagnostics.push_back(std::move(d));
  }

  // The emitted space no successor absorbs: a table-miss at the handoff
  // target: `out` minus every successor's cubes, in successor order.
  hsa::HeaderSpace residual_space(VertexId v, const hsa::HeaderSpace& out) {
    absorbed_.clear();
    for (const VertexId w : snap_.successors(v)) {
      const auto& cubes = snap_.in_space(w).cubes();
      absorbed_.insert(absorbed_.end(), cubes.begin(), cubes.end());
    }
    return out.subtract(absorbed_);
  }

  // The loop/blackhole walk. `in` is non-empty and ⊆ in_space(v).
  void builtin_visit(VertexId v, const hsa::HeaderSpace& in) {
    mark(v);
    if (truncated_) return;
    const FlowEntry& e = entry(v);
    const hsa::HeaderSpace out = in.transform(e.set_field);
    const Terminal terminal = classify(e);
    if (terminal == Terminal::kIntentional) return;
    if (terminal == Terminal::kInvalidPort) {
      if (check_blackholes_) {
        report_blackhole(v, out, "output port has no link; every emitted "
                                 "header is silently lost");
      }
      return;
    }
    on_stack_[static_cast<std::size_t>(v)] = 1;
    path_.push_back(v);
    for (const VertexId w : snap_.successors(v)) {
      mark(w);
      if (!take_step()) break;
      const hsa::HeaderSpace next = out.intersect(snap_.in_space(w));
      if (next.is_empty()) continue;
      if (on_stack_[static_cast<std::size_t>(w)]) {
        if (check_loops_) report_loop(w, next);
        continue;
      }
      builtin_visit(w, next);
      if (truncated_) break;
    }
    if (check_blackholes_ && !truncated_) {
      const hsa::HeaderSpace residual = residual_space(v, out);
      if (!residual.is_empty()) {
        report_blackhole(v, residual,
                         "emitted headers match no entry in the handoff "
                         "target table (table-miss)");
      }
    }
    path_.pop_back();
    on_stack_[static_cast<std::size_t>(v)] = 0;
  }

  void report_arrival_violation(std::size_t inv_index, const Invariant& inv,
                                VertexId at, CheckId check) {
    std::vector<VertexId> full_path = path_;
    full_path.push_back(at);
    hsa::HeaderSpace inject = snap_.path_input_space(full_path);
    if (inv.slice.has_value()) inject = inject.intersect(*inv.slice);
    std::vector<int> path_entries;
    for (const VertexId p : full_path) path_entries.push_back(entry(p).id);
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = check;
    d.location = location_of(at);
    d.message =
        check == CheckId::kForbiddenPath
            ? "forbidden delivery: headers injected at switch " +
                  std::to_string(inv.src) + " reach switch " +
                  std::to_string(inv.dst)
            : "waypoint bypass: headers injected at switch " +
                  std::to_string(inv.src) + " reach switch " +
                  std::to_string(inv.dst) + " without traversing switch " +
                  std::to_string(inv.via);
    d.payload.emplace_back("invariant", inv.to_string());
    d.payload.emplace_back("path-entries", join_ids(path_entries));
    d.payload.emplace_back("counterexample", inject.to_string());
    if (const auto header = inject.any_member()) {
      d.payload.emplace_back("header", header->to_string());
    }
    result_.diagnostics.push_back(std::move(d));
    result_.witnessed[inv_index] = 0;  // violation, not a witness
  }

  // Restricted walk for one reach-style invariant. `in` is non-empty.
  // `done` short-circuits the walk once the invariant's verdict for this
  // class is decided (witness found or violation reported).
  void reach_visit(std::size_t inv_index, const Invariant& inv, VertexId v,
                   const hsa::HeaderSpace& in, bool seen_via, bool& done) {
    mark(v);
    if (truncated_) return;
    const FlowEntry& e = entry(v);
    seen_via = seen_via || e.switch_id == inv.via;
    if (e.switch_id == inv.dst) {
      switch (inv.kind) {
        case InvariantKind::kReach:
          result_.witnessed[inv_index] = 1;
          done = true;
          return;
        case InvariantKind::kNoReach:
          report_arrival_violation(inv_index, inv, v, CheckId::kForbiddenPath);
          done = true;
          return;
        case InvariantKind::kWaypoint:
          if (!seen_via) {
            report_arrival_violation(inv_index, inv, v,
                                     CheckId::kWaypointBypass);
            done = true;
          }
          // Arrived (possibly legitimately): paths do not continue past the
          // destination for waypoint purposes.
          return;
        default:
          return;
      }
    }
    if (classify(e) != Terminal::kContinues) return;
    const hsa::HeaderSpace out = in.transform(e.set_field);
    on_stack_[static_cast<std::size_t>(v)] = 1;
    path_.push_back(v);
    for (const VertexId w : snap_.successors(v)) {
      mark(w);
      if (!take_step()) break;
      const hsa::HeaderSpace next = out.intersect(snap_.in_space(w));
      if (next.is_empty()) continue;
      if (on_stack_[static_cast<std::size_t>(w)]) continue;  // loop walk's job
      reach_visit(inv_index, inv, w, next, seen_via, done);
      if (done || truncated_) break;
    }
    path_.pop_back();
    on_stack_[static_cast<std::size_t>(v)] = 0;
  }

  const core::AnalysisSnapshot& snap_;
  const std::vector<Invariant>& invariants_;
  const std::vector<std::uint8_t>& invalid_;
  const VertexId seed_;
  std::size_t budget_;
  std::size_t steps_ = 0;
  bool truncated_ = false;
  bool check_loops_ = false;
  bool check_blackholes_ = false;
  std::vector<std::uint8_t> on_stack_;
  std::vector<std::uint8_t> in_footprint_;
  std::vector<std::uint8_t> loop_reported_;
  std::vector<std::uint8_t> blackhole_reported_;
  std::vector<VertexId> path_;
  std::vector<hsa::TernaryString> absorbed_;  // residual_space's subtrahend
  Verifier::ClassResult result_;
};

// Mirrors record_lint_telemetry: verify.diag.<check-name> counters plus run
// tallies, published to the global registry.
void record_verify_telemetry(const VerifyReport& report,
                             const VerifyStats& stats) {
  auto& reg = telemetry::MetricsRegistry::global();
  if (!reg.enabled()) return;
  reg.counter("verify.runs").add(1);
  reg.counter("verify.classes_verified").add(stats.classes_verified);
  reg.counter("verify.classes_reused").add(stats.classes_reused);
  reg.counter("verify.steps").add(stats.steps);
  reg.counter("verify.errors").add(report.count(Severity::kError));
  for (const Diagnostic& d : report.diagnostics()) {
    reg.counter(std::string("verify.diag.") + check_name(d.check)).add(1);
  }
}

}  // namespace

Verifier::Verifier(InvariantSet invariants, VerifierConfig config)
    : invariants_(std::move(invariants)), config_(config) {}

std::vector<std::uint8_t> Verifier::invalid_invariants(
    const core::AnalysisSnapshot& snapshot) const {
  const SwitchId n_switches = snapshot.rules().switch_count();
  const int width = snapshot.header_width();
  const auto& invs = invariants_.invariants();
  std::vector<std::uint8_t> invalid(invs.size(), 0);
  for (std::size_t i = 0; i < invs.size(); ++i) {
    const Invariant& inv = invs[i];
    if (inv.kind == InvariantKind::kLoopFree ||
        inv.kind == InvariantKind::kBlackholeFree) {
      continue;
    }
    const auto bad_switch = [n_switches](SwitchId sw) {
      return sw < 0 || sw >= n_switches;
    };
    if (bad_switch(inv.src) || bad_switch(inv.dst) ||
        (inv.kind == InvariantKind::kWaypoint && bad_switch(inv.via))) {
      invalid[i] = 1;
    }
    if (inv.slice.has_value() && inv.slice->width() != width) invalid[i] = 1;
  }
  return invalid;
}

Verifier::ClassResult Verifier::verify_class(
    const core::AnalysisSnapshot& snapshot, VertexId seed,
    const std::vector<std::uint8_t>& invalid) const {
  return ClassWalk(snapshot, invariants_, invalid, config_, seed).run();
}

VerifyReport Verifier::verify(const core::AnalysisSnapshot& snapshot) {
  telemetry::TraceSpan span("verify.run");
  const std::vector<std::uint8_t> invalid = invalid_invariants(snapshot);
  classes_.clear();
  VerifyStats stats;
  for (SwitchId sw = 0; sw < snapshot.rules().switch_count(); ++sw) {
    for (const VertexId seed : snapshot.ingress_vertices(sw)) {
      ClassResult r = verify_class(snapshot, seed, invalid);
      stats.steps += r.steps;
      ++stats.classes_verified;
      classes_.emplace(snapshot.entry_of(seed), std::move(r));
    }
  }
  verified_ = true;
  return assemble(snapshot, stats);
}

VerifyReport Verifier::apply_delta(const core::AnalysisSnapshot& snapshot,
                                   std::span<const core::VertexId> touched) {
  SDNPROBE_CHECK(verified_)
      << "apply_delta requires a prior full verify() on this graph lineage";
  telemetry::TraceSpan span("verify.delta");
  const std::vector<std::uint8_t> invalid = invalid_invariants(snapshot);
  const auto V = static_cast<std::size_t>(snapshot.vertex_count());
  std::vector<std::uint8_t> dirty(V, 0);
  for (const VertexId v : touched) {
    if (v < 0 || static_cast<std::size_t>(v) >= V) continue;
    dirty[static_cast<std::size_t>(v)] = 1;
    // connect_vertex() rewires predecessors' adjacency without reporting
    // them as touched: a class whose footprint contains a current
    // predecessor may have gained a brand-new path into the touched region.
    for (const VertexId u : snapshot.predecessors(v)) {
      dirty[static_cast<std::size_t>(u)] = 1;
    }
  }
  std::map<EntryId, ClassResult> next;
  VerifyStats stats;
  for (SwitchId sw = 0; sw < snapshot.rules().switch_count(); ++sw) {
    for (const VertexId seed : snapshot.ingress_vertices(sw)) {
      const EntryId id = snapshot.entry_of(seed);
      const auto it = classes_.find(id);
      bool reuse = it != classes_.end();
      if (reuse) {
        for (const VertexId f : it->second.footprint) {
          if (dirty[static_cast<std::size_t>(f)]) {
            reuse = false;
            break;
          }
        }
      }
      if (reuse) {
        ++stats.classes_reused;
        next.emplace(id, std::move(it->second));
      } else {
        ClassResult r = verify_class(snapshot, seed, invalid);
        stats.steps += r.steps;
        ++stats.classes_verified;
        next.emplace(id, std::move(r));
      }
    }
  }
  classes_ = std::move(next);  // classes of vanished seeds drop out here
  return assemble(snapshot, stats);
}

VerifyReport Verifier::assemble(const core::AnalysisSnapshot& snapshot,
                                VerifyStats stats) const {
  VerifyReport report;
  const auto& invs = invariants_.invariants();
  std::vector<std::uint8_t> witnessed(invs.size(), 0);
  stats.classes_total = classes_.size();
  for (const auto& [id, r] : classes_) {
    for (const Diagnostic& d : r.diagnostics) report.add(d);
    for (std::size_t i = 0; i < witnessed.size(); ++i) {
      if (i < r.witnessed.size()) witnessed[i] |= r.witnessed[i];
    }
    if (r.truncated) ++stats.truncated_classes;
  }
  const std::vector<std::uint8_t> invalid = invalid_invariants(snapshot);
  for (std::size_t i = 0; i < invs.size(); ++i) {
    const Invariant& inv = invs[i];
    if (invalid[i]) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.check = CheckId::kInvalidInvariant;
      d.location = Location{inv.src, -1, -1};
      d.message = "invariant references a switch outside the topology or a "
                  "slice of the wrong width";
      d.payload.emplace_back("invariant", inv.to_string());
      report.add(std::move(d));
      continue;
    }
    if (inv.kind == InvariantKind::kReach && !witnessed[i]) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.check = CheckId::kUnreachablePair;
      d.location = Location{inv.src, -1, -1};
      d.message = "unreachable pair: no header injected at switch " +
                  std::to_string(inv.src) + " is forwarded to switch " +
                  std::to_string(inv.dst);
      d.payload.emplace_back("invariant", inv.to_string());
      report.add(std::move(d));
    }
  }
  if (stats.truncated_classes > 0) {
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.check = CheckId::kVerifyTruncated;
    d.message = std::to_string(stats.truncated_classes) +
                " equivalence class(es) exhausted the per-class traversal "
                "budget of " +
                std::to_string(config_.class_step_budget) +
                " steps; their verdicts are partial";
    report.add(std::move(d));
  }
  report.sort();
  report.stats_ = stats;
  record_verify_telemetry(report, stats);
  return report;
}

}  // namespace sdnprobe::analysis

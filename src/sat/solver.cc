#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "telemetry/metrics.h"

namespace sdnprobe::sat {
namespace {

// Search heuristics (MiniSat's defaults). VSIDS activity decay per conflict
// (the increment grows by 1/kVarDecay) and learned-clause activity decay.
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
// Luby restart unit: restart i fires after luby(2, i) * unit conflicts.
constexpr int kLubyRestartUnit = 64;
// Geometric growth of the clause-DB reduction trigger after each reduction.
constexpr double kReduceGrowth = 1.3;

// Publishes the search-counter deltas of one solve() call to the global
// registry on scope exit (covering every return path). SolverStats itself
// stays the per-instance source of truth; telemetry aggregates across
// solver instances, which a caller holding only one Solver cannot.
class SolveStatsPublisher {
 public:
  explicit SolveStatsPublisher(const SolverStats& stats)
      : stats_(stats), before_(stats) {}
  ~SolveStatsPublisher() {
    auto& reg = telemetry::MetricsRegistry::global();
    if (!reg.enabled()) return;
    reg.counter("sat.solves").add(1);
    reg.counter("sat.decisions").add(stats_.decisions - before_.decisions);
    reg.counter("sat.propagations")
        .add(stats_.propagations - before_.propagations);
    reg.counter("sat.conflicts").add(stats_.conflicts - before_.conflicts);
    reg.counter("sat.restarts").add(stats_.restarts - before_.restarts);
    reg.counter("sat.learned_clauses")
        .add(stats_.learned_clauses - before_.learned_clauses);
    reg.histogram("sat.solve.conflicts")
        .record(static_cast<double>(stats_.conflicts - before_.conflicts));
  }

 private:
  const SolverStats& stats_;
  const SolverStats before_;
};

}  // namespace

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(kUndef);
  reason_.push_back(kClauseRefUndef);
  level_.push_back(0);
  activity_.push_back(0.0);
  polarity_.push_back(1);  // default phase: prefer false (common heuristic)
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  order_.grow(v + 1);
  order_.insert(v);
  return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  assert(trail_lim_.empty() && "clauses must be added at decision level 0");
  // Normalize: sort, dedup, drop false literals, detect tautology/satisfied.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> cleaned;
  cleaned.reserve(lits.size());
  Lit prev = kLitUndef;
  for (const Lit l : lits) {
    assert(var_of(l) < num_vars());
    if (l == prev) continue;
    if (prev >= 0 && l == negate(prev)) {
      return true;  // tautology: contains v and ¬v
    }
    const std::uint8_t val = lit_value(l);
    if (val == kTrue) return true;  // already satisfied at level 0
    if (val == kFalse) continue;    // already falsified at level 0: drop
    cleaned.push_back(l);
    prev = l;
  }
  if (cleaned.empty()) {
    ok_ = false;
    return false;
  }
  if (cleaned.size() == 1) {
    enqueue(cleaned[0], kClauseRefUndef);
    if (propagate() != kClauseRefUndef) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef cr = ca_.alloc(cleaned, /*learned=*/false);
  clauses_.push_back(cr);
  attach_clause(cr);
  return true;
}

void Solver::attach_clause(ClauseRef cr) {
  const Clause c = ca_.deref(cr);
  assert(c.size() >= 2);
  watches_[static_cast<std::size_t>(negate(c[0]))].push_back(
      Watcher{cr, c[1]});
  watches_[static_cast<std::size_t>(negate(c[1]))].push_back(
      Watcher{cr, c[0]});
}

void Solver::detach_clause(ClauseRef cr) {
  const Clause c = ca_.deref(cr);
  for (const Lit w : {c[0], c[1]}) {
    auto& ws = watches_[static_cast<std::size_t>(negate(w))];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cr) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::is_locked(const Clause& c, ClauseRef cr) const {
  const Var v = var_of(c[0]);
  return assigns_[static_cast<std::size_t>(v)] != kUndef &&
         reason_[static_cast<std::size_t>(v)] == cr &&
         lit_value(c[0]) == kTrue;
}

void Solver::remove_clause(ClauseRef cr) {
  const Clause c = ca_.deref(cr);
  detach_clause(cr);
  if (is_locked(c, cr)) {
    // Only happens at level 0 (reduce/simplify run there): the assignment
    // is permanent, so the reason record is never consulted again.
    reason_[static_cast<std::size_t>(var_of(c[0]))] = kClauseRefUndef;
  }
  ca_.free_clause(cr);
}

bool Solver::clause_satisfied(const Clause& c) const {
  for (int k = 0; k < c.size(); ++k) {
    if (lit_value(c[k]) == kTrue) return true;
  }
  return false;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  const Var v = var_of(l);
  assert(assigns_[static_cast<std::size_t>(v)] == kUndef);
  assigns_[static_cast<std::size_t>(v)] = is_negated(l) ? kFalse : kTrue;
  reason_[static_cast<std::size_t>(v)] = reason;
  level_[static_cast<std::size_t>(v)] = decision_level();
  polarity_[static_cast<std::size_t>(v)] = is_negated(l) ? 1 : 0;
  trail_.push_back(l);
}

ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(p)];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (lit_value(w.blocker) == kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause c = ca_.deref(w.cref);
      // Ensure the falsified literal (negate(p)) sits at position 1.
      const Lit false_lit = negate(p);
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      assert(c[1] == false_lit);
      // If the other watch is true, the clause is satisfied.
      const Lit first = c[0];
      if (lit_value(first) == kTrue) {
        ws[j++] = Watcher{w.cref, first};
        ++i;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (int k = 2; k < c.size(); ++k) {
        if (lit_value(c[k]) != kFalse) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_[static_cast<std::size_t>(negate(c[1]))].push_back(
              Watcher{w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // watcher migrated; do not keep it here
        continue;
      }
      // Clause is unit or conflicting.
      if (lit_value(first) == kFalse) {
        // Conflict: restore remaining watchers and report.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.cref;
      }
      enqueue(first, w.cref);
      ws[j++] = ws[i++];
    }
    ws.resize(j);
  }
  return kClauseRefUndef;
}

void Solver::bump_var(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.increased(v);
}

void Solver::bump_clause(Clause c) {
  c.set_activity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef cr : learnts_) {
      Clause lc = ca_.deref(cr);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= kVarDecay;
  cla_inc_ /= kClauseDecay;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     int& backtrack_level) {
  learnt.clear();
  learnt.push_back(0);  // placeholder for the asserting (1UIP) literal
  to_clear_.clear();
  int counter = 0;  // literals of the current level still to resolve
  Lit p = kLitUndef;
  ClauseRef cr = conflict;
  std::size_t index = trail_.size();
  const int current_level = decision_level();

  do {
    assert(cr != kClauseRefUndef);
    Clause c = ca_.deref(cr);
    if (c.learned()) bump_clause(c);
    const int start = (p == kLitUndef) ? 0 : 1;
    for (int k = start; k < c.size(); ++k) {
      const Lit q = c[k];
      const Var v = var_of(q);
      if (seen_[static_cast<std::size_t>(v)] ||
          level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      bump_var(v);
      if (level_[static_cast<std::size_t>(v)] == current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
        to_clear_.push_back(v);
      }
    }
    // Select the next literal on the trail to resolve on.
    while (!seen_[static_cast<std::size_t>(var_of(trail_[index - 1]))]) {
      --index;
    }
    --index;
    p = trail_[index];
    cr = reason_[static_cast<std::size_t>(var_of(p))];
    seen_[static_cast<std::size_t>(var_of(p))] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = negate(p);

  // Conflict-clause minimization (MiniSat's "basic" mode): a literal is
  // redundant when its reason's other antecedents are all already in the
  // clause (seen) or fixed at level 0. Antecedents of a non-current-level
  // literal are never at the current level, so the remaining seen_ flags
  // (exactly the learnt literals) are the right witness set.
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Var v = var_of(learnt[i]);
    const ClauseRef r = reason_[static_cast<std::size_t>(v)];
    bool redundant = false;
    if (r != kClauseRefUndef) {
      redundant = true;
      const Clause rc = ca_.deref(r);
      for (int k = 1; k < rc.size(); ++k) {
        const Var w = var_of(rc[k]);
        if (!seen_[static_cast<std::size_t>(w)] &&
            level_[static_cast<std::size_t>(w)] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) learnt[kept++] = learnt[i];
  }
  learnt.resize(kept);

  // Compute backtrack level: the second-highest level in the learnt clause.
  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k) {
      if (level_[static_cast<std::size_t>(var_of(learnt[k]))] >
          level_[static_cast<std::size_t>(var_of(learnt[max_i]))]) {
        max_i = k;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[static_cast<std::size_t>(var_of(learnt[1]))];
  }
  for (const Var v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
}

void Solver::analyze_final(Lit failing_assumption) {
  conflict_core_.clear();
  conflict_core_.push_back(failing_assumption);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(var_of(failing_assumption))] = 1;
  for (std::size_t i = trail_.size();
       i > static_cast<std::size_t>(trail_lim_[0]); --i) {
    const Var v = var_of(trail_[i - 1]);
    if (!seen_[static_cast<std::size_t>(v)]) continue;
    const ClauseRef r = reason_[static_cast<std::size_t>(v)];
    if (r == kClauseRefUndef) {
      assert(level_[static_cast<std::size_t>(v)] > 0);
      conflict_core_.push_back(trail_[i - 1]);  // an assumption, as assumed
    } else {
      const Clause c = ca_.deref(r);
      for (int k = 1; k < c.size(); ++k) {
        const Var w = var_of(c[k]);
        if (level_[static_cast<std::size_t>(w)] > 0) {
          seen_[static_cast<std::size_t>(w)] = 1;
        }
      }
    }
    seen_[static_cast<std::size_t>(v)] = 0;
  }
  seen_[static_cast<std::size_t>(var_of(failing_assumption))] = 0;
}

void Solver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t keep = static_cast<std::size_t>(
      trail_lim_[static_cast<std::size_t>(target_level)]);
  for (std::size_t k = trail_.size(); k > keep; --k) {
    const Var v = var_of(trail_[k - 1]);
    assigns_[static_cast<std::size_t>(v)] = kUndef;
    reason_[static_cast<std::size_t>(v)] = kClauseRefUndef;
    order_.insert(v);
  }
  trail_.resize(keep);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
  // Highest-activity unassigned variable off the VSIDS heap (assigned
  // entries are discarded lazily; backtrack() reinserts).
  while (!order_.empty()) {
    const Var v = order_.remove_max();
    if (assigns_[static_cast<std::size_t>(v)] == kUndef) {
      return make_lit(v, polarity_[static_cast<std::size_t>(v)] != 0);
    }
  }
  return kLitUndef;
}

void Solver::remove_satisfied(std::vector<ClauseRef>& list) {
  std::size_t j = 0;
  for (const ClauseRef cr : list) {
    Clause c = ca_.deref(cr);
    if (clause_satisfied(c)) {
      remove_clause(cr);
      continue;
    }
    // Strengthen: drop level-0 falsified literals. Watched positions are
    // untouched (after a propagation fixpoint an unsatisfied clause has
    // both watches unassigned), so watcher lists stay valid.
    for (int k = c.size() - 1; k >= 2; --k) {
      if (lit_value(c[k]) == kFalse) {
        c.remove_lit(k);
        ca_.note_shrink();
      }
    }
    list[j++] = cr;
  }
  list.resize(j);
}

bool Solver::simplify() {
  assert(decision_level() == 0);
  if (!ok_) return false;
  if (propagate() != kClauseRefUndef) {
    ok_ = false;
    return false;
  }
  if (trail_.size() == simp_trail_head_) return true;  // no new facts
  remove_satisfied(learnts_);
  remove_satisfied(clauses_);
  simp_trail_head_ = trail_.size();
  maybe_garbage_collect();
  return true;
}

void Solver::reduce_db() {
  ++stats_.reduce_runs;
  // Lowest-activity half goes, sparing binary clauses and reasons. The
  // ClauseRef tie-break keeps the sweep deterministic.
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const float aa = ca_.deref(a).activity();
              const float ab = ca_.deref(b).activity();
              if (aa != ab) return aa < ab;
              return a < b;
            });
  const std::size_t half = learnts_.size() / 2;
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef cr = learnts_[i];
    const Clause c = ca_.deref(cr);
    if (i < half && c.size() > 2 && !is_locked(c, cr)) {
      remove_clause(cr);
      ++stats_.learned_removed;
    } else {
      learnts_[j++] = cr;
    }
  }
  learnts_.resize(j);
  maybe_garbage_collect();
}

void Solver::maybe_garbage_collect() {
  if (static_cast<double>(ca_.wasted_words()) <
      config_.gc_wasted_fraction * static_cast<double>(ca_.size_words())) {
    return;
  }
  ++stats_.gc_runs;
  ClauseAllocator to;
  to.reserve_for_copy(ca_);
  for (auto& ws : watches_) {
    for (auto& w : ws) ca_.reloc(w.cref, to);
  }
  for (const Lit l : trail_) {
    ClauseRef& r = reason_[static_cast<std::size_t>(var_of(l))];
    if (r != kClauseRefUndef) ca_.reloc(r, to);
  }
  for (auto& cr : clauses_) ca_.reloc(cr, to);
  for (auto& cr : learnts_) ca_.reloc(cr, to);
  ca_ = std::move(to);
}

double Solver::luby(double y, int i) {
  // Finite-subsequence construction (Luby et al.); i is 0-based.
  int size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

Result Solver::search() {
  std::int64_t conflicts_left = config_.conflict_budget;
  int restart_index = 0;
  auto restart_limit = static_cast<std::uint64_t>(
      luby(2.0, restart_index) * kLubyRestartUnit);
  std::uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;
  if (reduce_limit_ == 0) reduce_limit_ = config_.reduce_base;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kClauseRefUndef) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        ok_ = false;  // conflict independent of assumptions
        return Result::kUnsat;
      }
      if (config_.conflict_budget >= 0 && --conflicts_left < 0) {
        return Result::kUnknown;
      }
      int back_level = 0;
      analyze(conflict, learnt, back_level);
      backtrack(back_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kClauseRefUndef);
      } else {
        const ClauseRef cr = ca_.alloc(learnt, /*learned=*/true);
        ca_.deref(cr).set_activity(static_cast<float>(cla_inc_));
        learnts_.push_back(cr);
        ++stats_.learned_clauses;
        attach_clause(cr);
        enqueue(learnt[0], cr);
      }
      decay_activities();
      continue;
    }
    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      restart_limit = static_cast<std::uint64_t>(
          luby(2.0, ++restart_index) * kLubyRestartUnit);
      backtrack(0);
      if (static_cast<std::int64_t>(learnts_.size()) >= reduce_limit_) {
        reduce_db();
        reduce_limit_ = static_cast<std::int64_t>(
            static_cast<double>(reduce_limit_) * kReduceGrowth);
      }
      continue;
    }
    // Establish pending assumptions before any free decision.
    Lit next = kLitUndef;
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const Lit p = assumptions_[static_cast<std::size_t>(decision_level())];
      if (lit_value(p) == kTrue) {
        // Already satisfied: open a placeholder level so levels keep
        // indexing assumptions.
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (lit_value(p) == kFalse) {
        analyze_final(p);
        return Result::kUnsat;
      } else {
        next = p;
        break;
      }
    }
    if (next == kLitUndef) {
      next = pick_branch();
      if (next == kLitUndef) return Result::kSat;  // all variables assigned
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kClauseRefUndef);
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  const SolveStatsPublisher publish(stats_);
  ++stats_.solves;
  conflict_core_.clear();
  if (!ok_) return Result::kUnsat;
  backtrack(0);
  assumptions_ = assumptions;
#ifndef NDEBUG
  for (const Lit a : assumptions_) {
    assert(var_of(a) >= 0 && var_of(a) < num_vars());
  }
#endif
  const Result r = simplify() ? search() : Result::kUnsat;
  if (r == Result::kSat) model_.assign(assigns_.begin(), assigns_.end());
  backtrack(0);
  assumptions_.clear();
  return r;
}

bool Solver::model_value(Var v) const {
  assert(v >= 0 && v < num_vars());
  assert(static_cast<std::size_t>(v) < model_.size());
  return model_[static_cast<std::size_t>(v)] == kTrue;
}

}  // namespace sdnprobe::sat

// An incremental CDCL SAT solver, standing in for MiniSat [17] in the
// paper's header-synthesis pipeline (§V-A "we can obtain a header that
// satisfies the input using efficient SAT/SMT solvers" and §VI's unique
// probe-header selection).
//
// Compared with the first-generation solver in this repo (one-shot DPLL+CDCL
// over std::vector<Clause>), this is the MiniSat-lineage production shape:
//
//  - Arena clause storage: clauses live in a uint32 arena addressed by
//    32-bit ClauseRefs (clause_allocator.h); clause-DB reduction reclaims
//    space with a copying garbage collector instead of rebuilding watchers.
//  - Heap VSIDS: branching picks the highest-activity variable from an
//    indexed max-heap (var_heap.h) with a lowest-index tie-break, replacing
//    the former O(n) linear scan.
//  - Incremental solving under assumptions: solve(assumptions) treats each
//    assumption as a forced first decision; on UNSAT it extracts the failed
//    subset (failed_assumptions()). Learned clauses are derived from the
//    formula alone, so they remain valid across calls — the basis for
//    sat::HeaderSession's clause reuse across per-header queries.
//  - Luby restarts, phase saving, conflict-clause minimization, and a
//    level-0 sweep of satisfied clauses and falsified literals (simplify()).
//
// All tie-breaks are index-ordered and no randomness is consumed, so every
// answer — and, with an unbounded budget, every model — is a deterministic
// function of the clause/assumption sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/clause_allocator.h"
#include "sat/literal.h"
#include "sat/solver_config.h"
#include "sat/var_heap.h"

namespace sdnprobe::sat {

enum class Result { kSat, kUnsat, kUnknown };

// Aggregate search counters, exposed for the §VIII-A latency bench.
struct SolverStats {
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_removed = 0;  // dropped by clause-DB reduction
  std::uint64_t reduce_runs = 0;
  std::uint64_t gc_runs = 0;
};

class Solver {
 public:
  explicit Solver(SolverConfig config = {}) : config_(config) {}

  // Allocates a fresh variable and returns its index.
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  // Adds a clause (disjunction of literals). Returns false if the clause
  // makes the formula trivially unsatisfiable (empty after simplification,
  // or conflicts with current top-level assignments). All referenced
  // variables must have been created with new_var().
  bool add_clause(std::vector<Lit> lits);

  // Convenience overloads.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }

  // Solves the formula under the given assumptions (each treated as a
  // forced first decision). kUnsat with an empty failed_assumptions() means
  // the formula itself is unsatisfiable; a non-empty core is the subset of
  // `assumptions` that cannot hold together with the formula. kUnknown is
  // returned when config().conflict_budget is exhausted. The solver state
  // (learned clauses, activities, phases) persists across calls.
  Result solve(const std::vector<Lit>& assumptions);
  Result solve() { return solve({}); }

  // Model access after solve() returned kSat.
  bool model_value(Var v) const;

  // After solve(assumptions) returned kUnsat: the failing subset of the
  // assumptions (empty when the formula is unconditionally unsatisfiable).
  const std::vector<Lit>& failed_assumptions() const { return conflict_core_; }

  // Top-level housekeeping (also run at every solve() entry): propagates
  // pending facts, sweeps satisfied clauses, strengthens level-0 falsified
  // literals. Returns false when the formula is proven unsatisfiable.
  bool simplify();

  std::size_t learned_count() const { return learnts_.size(); }
  const SolverStats& stats() const { return stats_; }
  SolverConfig& config() { return config_; }
  const SolverConfig& config() const { return config_; }

 private:
  // Assignment lattice: 0 = true, 1 = false, 2 = unassigned; chosen so that
  // value(lit) = assigns_[var] ^ sign works out with XOR tricks below.
  static constexpr std::uint8_t kTrue = 0;
  static constexpr std::uint8_t kFalse = 1;
  static constexpr std::uint8_t kUndef = 2;

  struct Watcher {
    ClauseRef cref;
    Lit blocker;  // quick-check literal; if true, clause already satisfied
  };

  std::uint8_t lit_value(Lit l) const {
    const std::uint8_t a = assigns_[static_cast<std::size_t>(var_of(l))];
    return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l & 1));
  }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // returns conflicting clause ref or kClauseRefUndef
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt,
               int& backtrack_level);
  void analyze_final(Lit failing_assumption);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var v);
  void bump_clause(Clause c);
  void decay_activities();
  void attach_clause(ClauseRef cr);
  void detach_clause(ClauseRef cr);
  bool is_locked(const Clause& c, ClauseRef cr) const;
  void remove_clause(ClauseRef cr);
  bool clause_satisfied(const Clause& c) const;
  void remove_satisfied(std::vector<ClauseRef>& list);
  void reduce_db();
  void maybe_garbage_collect();
  Result search();
  static double luby(double y, int i);

  ClauseAllocator ca_;
  std::vector<ClauseRef> clauses_;             // problem clauses
  std::vector<ClauseRef> learnts_;             // learned clauses
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<std::uint8_t> assigns_;          // indexed by var
  std::vector<ClauseRef> reason_;              // clause ref or undef (decision)
  std::vector<int> level_;                     // decision level per var
  std::vector<double> activity_;               // branching activity per var
  std::vector<std::uint8_t> polarity_;         // phase saving
  VarHeap order_{activity_};                   // must follow activity_
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;  // trail index at each decision level
  std::size_t qhead_ = 0;
  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_core_;
  std::vector<std::uint8_t> model_;  // saved assignment of the last kSat
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::int64_t reduce_limit_ = 0;  // initialized from config at first search
  std::size_t simp_trail_head_ = 0;   // trail prefix already swept
  bool ok_ = true;  // false once the formula is proven unsat at level 0
  SolverConfig config_;
  SolverStats stats_;

  // Scratch used by analyze().
  std::vector<std::uint8_t> seen_;
  std::vector<Var> to_clear_;
};

}  // namespace sdnprobe::sat

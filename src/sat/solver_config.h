// Solver / session knobs, folded into one value type (mirroring
// core::CommonOptions): every bound lives here, is carried by
// sat::HeaderSession, and flows through configs
// (ProbeEngineConfig::sat, LintConfig::sat) instead of extra parameters.
#pragma once

#include <cstdint>

namespace sdnprobe::sat {

struct SolverConfig {
  // Conflicts one solve() call may spend before giving up with kUnknown;
  // < 0 means unbounded. Note for HeaderSession: a budgeted query that runs
  // out mid-canonicalization returns a valid but possibly non-canonical
  // witness (see session.h); with the default unbounded budget, session
  // answers are history-independent.
  std::int64_t conflict_budget = -1;

  // VSIDS decay per conflict (activity increment grows by 1/var_decay).
  double var_decay = 0.95;
  // Learned-clause activity decay per conflict.
  double clause_decay = 0.999;

  // Luby restart sequence unit: restart i fires after luby(2, i) * unit
  // conflicts (replaces the old fixed geometric schedule).
  int luby_restart_unit = 64;

  // Learned-clause count that triggers the first clause-DB reduction; the
  // trigger then grows geometrically by reduce_growth.
  int reduce_base = 2000;
  double reduce_growth = 1.3;

  // Copying garbage collection runs when at least this fraction of the
  // clause arena is reclaimable.
  double gc_wasted_fraction = 0.25;

  // Inprocessing (between solves, at decision level 0): satisfied-clause
  // sweep, subsumption + self-subsuming resolution, and bounded top-level
  // variable elimination of non-frozen variables.
  bool inprocessing = true;
  // Variables occurring in more than this many clauses are never considered
  // for elimination (keeps the resolvent cross-product bounded).
  int elim_max_occurrences = 16;
  // A candidate is abandoned when some resolvent would exceed this length.
  int elim_max_resolvent = 24;
  // Fraction of the original-clause DB that must be new since the last pass
  // before inprocessing runs again (full passes are O(DB); per-query session
  // growth is one clause, so this keeps inprocessing off the hot path).
  double inprocess_new_fraction = 0.25;
};

}  // namespace sdnprobe::sat

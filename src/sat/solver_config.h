// Solver / session knobs, folded into one value type (mirroring
// core::CommonOptions): every bound lives here and is carried by
// sat::HeaderSession. The pipeline's sessions (probe engine, linter) run
// with the defaults; tests set the budget and reduction thresholds. Search
// heuristics no caller tunes (VSIDS and clause-activity decay, the luby
// restart unit, the clause-DB reduction growth) are constants in
// solver.cc.
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

  // Learned-clause count that triggers the first clause-DB reduction; the
  // trigger then grows geometrically.
  int reduce_base = 2000;

  // Copying garbage collection runs when at least this fraction of the
  // clause arena is reclaimable.
  double gc_wasted_fraction = 0.25;
};

}  // namespace sdnprobe::sat

// CNF encoding of header constraints over a ternary header space, bridging
// hsa:: types to the SAT solver. This is how the reproduction realizes the
// paper's two SAT uses:
//
//  1. §V-A: find a concrete header in r.in = r.m − ∪ overlapping matches
//     (the tie-aware input space, encoded as a union of cubes).
//  2. §VI: find a *unique* probe header u that matches the tested entries but
//     no other entry on the path's switches and differs from all previously
//     chosen probe headers.
//
// Every constraint is guarded: clauses of the form (¬g ∨ ...) that only bite
// while the activation literal g is assumed. sat::HeaderSession keeps one
// incremental Solver alive across thousands of queries and scopes each
// query's space/forbidden-header constraints with such guards, so learned
// clauses carry over while retracted constraints cost nothing.
#pragma once

#include "hsa/header_space.h"
#include "hsa/ternary.h"
#include "sat/solver.h"

namespace sdnprobe::sat {

// Owns one Boolean variable per header bit within a caller-provided Solver.
// Multiple encoders over one solver are allowed (e.g. joint constraints on
// several headers), each with its own bit variables.
class HeaderEncoder {
 public:
  // Allocates `width` fresh bit variables in `solver`. H[k] == 1
  // corresponds to bit_var(k) being true.
  HeaderEncoder(Solver& solver, int width);

  int width() const { return width_; }
  Var bit_var(int k) const;

  // activation -> header ∉ cube: one clause asserting, under the guard,
  // that at least one exact bit differs. A fully-wildcard cube covers
  // everything and yields the clause (¬activation): assuming the guard then
  // makes the query unsatisfiable, faithfully.
  void require_not_in_cube_if(Lit activation, const hsa::TernaryString& cube);

  // activation -> header ∈ space (Tseitin selector per cube, with the
  // disjunction clause guarded). An empty space yields (¬activation).
  void require_in_space_if(Lit activation, const hsa::HeaderSpace& space);

  // After Solver::solve() == kSat, reads the concrete header off the model.
  hsa::TernaryString extract_model() const;

 private:
  Solver& solver_;
  int width_;
  Var first_var_;
};

}  // namespace sdnprobe::sat

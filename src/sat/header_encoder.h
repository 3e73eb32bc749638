// CNF encoding of header constraints over a ternary header space, bridging
// hsa:: types to the SAT solver. This is how the reproduction realizes the
// paper's two SAT uses:
//
//  1. §V-A: find a concrete header in r.in = r.m − ∪ overlapping matches
//     (require_in_cube(r.m) + require_not_in_cube(q.m) per overlap q).
//  2. §VI: find a *unique* probe header u that matches the tested entries but
//     no other entry on the path's switches and differs from all previously
//     chosen probe headers.
//
// Constraints come in two flavours:
//  - unconditional (require_*): permanent clauses, the one-shot shape;
//  - guarded (require_*_if): clauses of the form (¬g ∨ ...) that only bite
//    while the activation literal g is assumed. sat::HeaderSession keeps one
//    incremental Solver alive across thousands of queries and scopes each
//    query's space/forbidden-header constraints with such guards, so learned
//    clauses carry over while retracted constraints cost nothing.
#pragma once

#include "hsa/header_space.h"
#include "hsa/ternary.h"
#include "sat/solver.h"

namespace sdnprobe::sat {

// Owns one Boolean variable per header bit within a caller-provided Solver.
// Multiple encoders over one solver are allowed (e.g. joint constraints on
// several headers), each with its own bit variables.
//
// Every variable the encoder allocates (bits and Tseitin selectors) is
// frozen: bit variables appear in later assumptions, selectors in later
// guarded clauses, and inprocessing must never eliminate either.
class HeaderEncoder {
 public:
  // Allocates `width` fresh (frozen) bit variables in `solver`. H[k] == 1
  // corresponds to bit_var(k) being true.
  HeaderEncoder(Solver& solver, int width);

  int width() const { return width_; }
  Var bit_var(int k) const;

  // header ∈ cube: unit clause per exact bit of the cube.
  void require_in_cube(const hsa::TernaryString& cube);

  // header ∉ cube: one clause asserting at least one exact bit differs.
  // A fully-wildcard cube covers everything, making the formula unsat; that
  // is encoded faithfully (an empty clause).
  void require_not_in_cube(const hsa::TernaryString& cube);

  // activation -> header ∉ cube. A fully-wildcard cube yields the clause
  // (¬activation): assuming the guard then makes the query unsatisfiable,
  // again faithfully.
  void require_not_in_cube_if(Lit activation, const hsa::TernaryString& cube);

  // header ∈ (union of cubes): Tseitin selector per cube.
  void require_in_space(const hsa::HeaderSpace& space);

  // activation -> header ∈ space (selector encoding with the disjunction
  // clause guarded). An empty space yields (¬activation).
  void require_in_space_if(Lit activation, const hsa::HeaderSpace& space);

  // header ∉ every cube of the space.
  void require_not_in_space(const hsa::HeaderSpace& space);

  // header != the given concrete header (used for probe-header uniqueness).
  void require_differs_from(const hsa::TernaryString& concrete);

  // After Solver::solve() == kSat, reads the concrete header off the model.
  hsa::TernaryString extract_model() const;

 private:
  void add_space_clauses(std::vector<Lit> disjunction_prefix,
                         const hsa::HeaderSpace& space);

  Solver& solver_;
  int width_;
  Var first_var_;
};

}  // namespace sdnprobe::sat

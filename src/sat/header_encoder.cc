#include "sat/header_encoder.h"

#include <cassert>

namespace sdnprobe::sat {

HeaderEncoder::HeaderEncoder(Solver& solver, int width)
    : solver_(solver), width_(width) {
  assert(width >= 0);
  first_var_ = solver_.num_vars();
  for (int k = 0; k < width; ++k) solver_.new_var(/*frozen=*/true);
}

Var HeaderEncoder::bit_var(int k) const {
  assert(k >= 0 && k < width_);
  return first_var_ + k;
}

void HeaderEncoder::require_in_cube(const hsa::TernaryString& cube) {
  assert(cube.width() == width_);
  for (int k = 0; k < width_; ++k) {
    switch (cube.get(k)) {
      case hsa::Trit::kOne:
        solver_.add_unit(pos(bit_var(k)));
        break;
      case hsa::Trit::kZero:
        solver_.add_unit(neg(bit_var(k)));
        break;
      case hsa::Trit::kWild:
        break;
    }
  }
}

void HeaderEncoder::require_not_in_cube(const hsa::TernaryString& cube) {
  assert(cube.width() == width_);
  std::vector<Lit> clause;
  for (int k = 0; k < width_; ++k) {
    switch (cube.get(k)) {
      case hsa::Trit::kOne:
        clause.push_back(neg(bit_var(k)));
        break;
      case hsa::Trit::kZero:
        clause.push_back(pos(bit_var(k)));
        break;
      case hsa::Trit::kWild:
        break;
    }
  }
  solver_.add_clause(std::move(clause));
}

void HeaderEncoder::require_not_in_cube_if(Lit activation,
                                           const hsa::TernaryString& cube) {
  assert(cube.width() == width_);
  std::vector<Lit> clause;
  clause.push_back(negate(activation));
  for (int k = 0; k < width_; ++k) {
    switch (cube.get(k)) {
      case hsa::Trit::kOne:
        clause.push_back(neg(bit_var(k)));
        break;
      case hsa::Trit::kZero:
        clause.push_back(pos(bit_var(k)));
        break;
      case hsa::Trit::kWild:
        break;
    }
  }
  solver_.add_clause(std::move(clause));
}

void HeaderEncoder::add_space_clauses(std::vector<Lit> disjunction_prefix,
                                      const hsa::HeaderSpace& space) {
  // Selector variable s_i per cube: s_i -> (header in cube_i), plus the
  // (possibly guarded) disjunction prefix ∨ s_1 ∨ ... ∨ s_n. Selectors are
  // frozen: the session solver assumes guards long after these clauses are
  // added, and elimination of a selector would break the retraction story.
  for (const auto& cube : space.cubes()) {
    const Var s = solver_.new_var(/*frozen=*/true);
    disjunction_prefix.push_back(pos(s));
    for (int k = 0; k < width_; ++k) {
      switch (cube.get(k)) {
        case hsa::Trit::kOne:
          solver_.add_binary(neg(s), pos(bit_var(k)));
          break;
        case hsa::Trit::kZero:
          solver_.add_binary(neg(s), neg(bit_var(k)));
          break;
        case hsa::Trit::kWild:
          break;
      }
    }
  }
  solver_.add_clause(std::move(disjunction_prefix));
}

void HeaderEncoder::require_in_space(const hsa::HeaderSpace& space) {
  // An empty space yields the empty clause: unsatisfiable, faithfully.
  add_space_clauses({}, space);
}

void HeaderEncoder::require_in_space_if(Lit activation,
                                        const hsa::HeaderSpace& space) {
  // An empty space yields (¬activation): unsatisfiable only under the guard.
  add_space_clauses({negate(activation)}, space);
}

void HeaderEncoder::require_not_in_space(const hsa::HeaderSpace& space) {
  for (const auto& cube : space.cubes()) require_not_in_cube(cube);
}

void HeaderEncoder::require_differs_from(const hsa::TernaryString& concrete) {
  assert(concrete.is_concrete());
  require_not_in_cube(concrete);
}

hsa::TernaryString HeaderEncoder::extract_model() const {
  hsa::TernaryString h(width_);
  for (int k = 0; k < width_; ++k) {
    h.set(k, solver_.model_value(bit_var(k)) ? hsa::Trit::kOne
                                             : hsa::Trit::kZero);
  }
  return h;
}

}  // namespace sdnprobe::sat

#include "sat/header_encoder.h"

#include <cassert>

namespace sdnprobe::sat {

HeaderEncoder::HeaderEncoder(Solver& solver, int width)
    : solver_(solver), width_(width) {
  assert(width >= 0);
  first_var_ = solver_.num_vars();
  for (int k = 0; k < width; ++k) solver_.new_var();
}

Var HeaderEncoder::bit_var(int k) const {
  assert(k >= 0 && k < width_);
  return first_var_ + k;
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

void HeaderEncoder::require_in_space_if(Lit activation,
                                        const hsa::HeaderSpace& space) {
  // Selector variable s_i per cube: s_i -> (header in cube_i), plus the
  // guarded disjunction ¬activation ∨ s_1 ∨ ... ∨ s_n. An empty space yields
  // (¬activation): unsatisfiable only under the guard.
  std::vector<Lit> disjunction{negate(activation)};
  for (const auto& cube : space.cubes()) {
    const Var s = solver_.new_var();
    disjunction.push_back(pos(s));
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
  solver_.add_clause(std::move(disjunction));
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

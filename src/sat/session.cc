#include "sat/session.h"

#include <cassert>
#include <utility>

#include "telemetry/metrics.h"

namespace sdnprobe::sat {

HeaderSession::HeaderSession(int width, SolverConfig config,
                             std::size_t space_cache_cap)
    : solver_(config), enc_(solver_, width), space_cache_cap_(space_cache_cap) {}

std::string HeaderSession::space_key(const hsa::HeaderSpace& space) {
  // Key the cache on the exact cube list (order included): two orderings of
  // one space get separate guards, which only costs a little reuse.
  std::string key;
  for (const auto& cube : space.cubes()) {
    key += cube.to_string();
    key += '|';
  }
  return key;
}

Lit HeaderSession::space_guard(const hsa::HeaderSpace& space) {
  std::string key = space_key(space);
  const auto it = space_guards_.find(key);
  if (it != space_guards_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // bump to MRU
    return it->second.guard;
  }
  const Lit g = pos(solver_.new_var());
  enc_.require_in_space_if(g, space);
  lru_.push_front(key);
  space_guards_.emplace(std::move(key), SpaceEntry{g, lru_.begin()});
  ++spaces_encoded_;
  evict_spaces_over_cap();
  return g;
}

void HeaderSession::evict_spaces_over_cap() {
  if (space_cache_cap_ == 0) return;  // unbounded
  while (space_guards_.size() > space_cache_cap_) {
    // Retire the least recently used space. The space just encoded is the
    // MRU entry, so the victim is never the one the caller is about to
    // assume.
    const auto entry = space_guards_.find(lru_.back());
    // ¬g as a permanent unit satisfies every (¬g ∨ C) clause of the retired
    // space; simplify() then physically sweeps them out of the clause DB
    // and watch lists — propagation stops paying for dead history.
    solver_.add_unit(negate(entry->second.guard));
    solver_.simplify();
    space_guards_.erase(entry);
    lru_.pop_back();
    ++spaces_evicted_;
    auto& reg = telemetry::MetricsRegistry::global();
    if (reg.enabled()) reg.counter("sat.session.spaces_evicted").add(1);
  }
}

Lit HeaderSession::forbid_guard(const hsa::TernaryString& header) {
  const auto it = forbid_guards_.find(header);
  if (it != forbid_guards_.end()) return it->second;
  const Lit g = pos(solver_.new_var());
  enc_.require_not_in_cube_if(g, header);
  forbid_guards_.emplace(header, g);
  return g;
}

std::optional<hsa::TernaryString> HeaderSession::find_header(
    const hsa::HeaderSpace& space,
    const std::vector<hsa::TernaryString>& forbidden) {
  assert(space.width() == width());
  ++queries_;
  {
    auto& reg = telemetry::MetricsRegistry::global();
    if (reg.enabled()) {
      reg.counter("sat.session.queries").add(1);
      // Learned clauses alive at query entry are exactly the work carried
      // over from earlier queries on this session.
      reg.counter("sat.session.reused_clauses")
          .add(static_cast<std::uint64_t>(solver_.learned_count()));
    }
  }

  std::vector<Lit> assumptions;
  assumptions.push_back(space_guard(space));
  for (const auto& h : forbidden) assumptions.push_back(forbid_guard(h));

  if (solver_.solve(assumptions) != Result::kSat) return std::nullopt;
  hsa::TernaryString witness = enc_.extract_model();

  // Canonicalize to the lexicographically smallest member: walk the bits
  // high-order first, pinning each to the witness's 0 or probing whether it
  // can be 0. Every kSat refreshes the witness (which then agrees with the
  // pinned prefix); kUnsat — or a budget-exhausted kUnknown — pins the bit
  // at 1 and keeps the witness we already have.
  for (int k = 0; k < width(); ++k) {
    const Lit zero = neg(enc_.bit_var(k));
    if (witness.get(k) == hsa::Trit::kZero) {
      assumptions.push_back(zero);
      continue;
    }
    assumptions.push_back(zero);
    if (solver_.solve(assumptions) == Result::kSat) {
      witness = enc_.extract_model();
    } else {
      assumptions.back() = pos(enc_.bit_var(k));
    }
  }
  return witness;
}

}  // namespace sdnprobe::sat

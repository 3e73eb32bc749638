// sat::HeaderSession — a persistent incremental SAT session for per-header
// queries, the centerpiece of the sat:: API redesign.
//
// The paper's pipeline issues thousands of tiny SAT queries per run: one per
// rule for §V-A input-space membership, one per probe for §VI unique-header
// selection, one per edge for the linter's reachability cross-check. The old
// API built a fresh Solver per query, discarding everything the search
// learned. A HeaderSession instead owns ONE Solver + HeaderEncoder per
// header width for its whole lifetime:
//
//  - each query's constraints (the target space, the forbidden headers) are
//    added once as guarded clauses (¬g ∨ ...) and activated by assuming g,
//    so they retract for free and re-arm on cache hit;
//  - learned clauses are implied by the formula alone — assumptions are
//    decisions, never antecedent-free facts — so they remain valid and keep
//    accelerating every later query.
//
// Canonical answers. find_header returns the *lexicographically smallest*
// concrete header of (space − forbidden), located by fixing bits H[0..L-1]
// low-to-high through assumptions (a solve is skipped whenever the current
// witness already has the bit at 0). Lex-min is a pure function of the query
// set, so a long-lived session, a throwaway session, and any interleaving
// of queries all return identical headers — this is what keeps probe
// generation bit-identical across thread counts and against the one-shot
// baseline. The only exception is a finite conflict_budget in the
// session's SolverConfig: a query that exhausts it mid-canonicalization
// still returns a valid member, just not necessarily the smallest one.
//
// Guard retirement (clause-DB hygiene at scale). Every distinct space a
// session encodes leaves its guarded clauses in the watch lists forever —
// even spaces never queried again — so propagation cost grows with session
// history, not live working set. The space cache is therefore an LRU with a
// capacity cap: evicting a space asserts ¬g as a permanent unit, which
// satisfies every (¬g ∨ C) clause of that space, and an eager simplify()
// physically sweeps them from the clause DB and watch lists. A later query
// naming an evicted space simply re-encodes it under a fresh guard; answers
// are unchanged (lex-min is a pure function of the query, not of session
// history). Eviction runs only while a query encodes a new space, which is
// then the most recently used entry, so the victim is always a space no
// in-flight query names. Forbidden-header guards stay unbounded: every one of
// them is active in every query (§VI network-wide uniqueness), so none is
// ever quiescent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hsa/header_space.h"
#include "hsa/ternary.h"
#include "sat/header_encoder.h"
#include "sat/solver.h"
#include "sat/solver_config.h"

namespace sdnprobe::sat {

class HeaderSession {
 public:
  // Default LRU capacity for cached space constraints; 0 = unbounded (the
  // pre-retirement behaviour). Deep-overlap workloads cycle through far
  // fewer than this many *live* spaces; the cap only bites on streams of
  // hundreds of one-shot spaces (see bench_sat's retirement pass).
  static constexpr std::size_t kDefaultSpaceCacheCap = 256;

  explicit HeaderSession(int width, SolverConfig config = {},
                         std::size_t space_cache_cap = kDefaultSpaceCacheCap);

  int width() const { return enc_.width(); }

  // Finds the lexicographically smallest concrete header that lies in
  // `space` and differs from every (concrete) header in `forbidden`.
  // Returns nullopt when no such header exists, or when the configured
  // conflict budget ran out before feasibility was established.
  std::optional<hsa::TernaryString> find_header(
      const hsa::HeaderSpace& space,
      const std::vector<hsa::TernaryString>& forbidden = {});

  // Session counters, exposed for the §VIII-A bench.
  std::uint64_t queries() const { return queries_; }
  const Solver& solver() const { return solver_; }

  // Retirement counters (bench_sat's clause-DB hygiene pass).
  std::size_t cached_spaces() const { return space_guards_.size(); }
  std::uint64_t spaces_encoded() const { return spaces_encoded_; }
  std::uint64_t spaces_evicted() const { return spaces_evicted_; }

 private:
  struct SpaceEntry {
    Lit guard;
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
  };

  // Returns the activation literal for the constraint, encoding it on first
  // use and reusing the cached guard on every later query that names the
  // same space / header. space_guard bumps the entry to MRU and evicts the
  // LRU entries past the cap.
  Lit space_guard(const hsa::HeaderSpace& space);
  Lit forbid_guard(const hsa::TernaryString& header);
  void evict_spaces_over_cap();
  static std::string space_key(const hsa::HeaderSpace& space);

  Solver solver_;
  HeaderEncoder enc_;
  std::size_t space_cache_cap_;
  std::unordered_map<std::string, SpaceEntry> space_guards_;
  std::list<std::string> lru_;  // space keys, most recently used first
  std::unordered_map<hsa::TernaryString, Lit, hsa::TernaryStringHash>
      forbid_guards_;
  std::uint64_t queries_ = 0;
  std::uint64_t spaces_encoded_ = 0;
  std::uint64_t spaces_evicted_ = 0;
};

}  // namespace sdnprobe::sat

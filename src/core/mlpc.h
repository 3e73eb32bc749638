// Minimum Legal Path Cover (§V-B) and its randomized variant (§V-C).
//
// The paper reduces test-packet minimization to MLPC on the rule graph and
// solves it with a Hopcroft–Karp-style matching over the legal transitive
// closure, where augmenting paths are accepted only when the stitched cover
// path stays legal (Definition 3). This implementation realizes the same
// fixed point — repeatedly merge two cover paths whenever a legal connection
// exists, until no legal augmenting stitch remains (Berge/Theorem-4
// optimality condition) — with two differences, both documented in
// DESIGN.md:
//
//  * Legality of a candidate stitch is verified *exactly* by header-space
//    propagation over the expanded real path, rather than by the paper's
//    O(1) pairwise closure-edge check (which is necessary but not sufficient
//    when three or more constraints interact; the paper's own Fig. 3 MPC
//    example shows why pairwise checks can lie).
//  * The legal transitive closure is applied lazily: a stitch may route
//    through already-covered vertices found by DFS, which is exactly what a
//    materialized closure edge would permit, without the O(V^2) memory.
//
// Deterministic mode visits tails and successors in index order, yielding a
// stable minimum cover. Randomized mode (Randomized SDNProbe) shuffles the
// tail worklist and DFS branch order per seed — the Dyer–Frieze random
// greedy matching [16] analogue — so every detection round draws different
// tested paths and different terminal switches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/rule_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {

// One tested path: an expanded, legal sequence of rule-graph vertices.
struct CoverPath {
  std::vector<VertexId> vertices;
  // Non-empty output-side header space (Definition 1's O_n).
  hsa::HeaderSpace output_space;
};

struct Cover {
  std::vector<CoverPath> paths;

  std::size_t path_count() const { return paths.size(); }
};

struct MlpcConfig {
  // Shared knobs (core/common_options.h): `randomized` selects the
  // Dyer–Frieze random greedy matcher, `seed` feeds the per-restart derived
  // streams, `threads` parallelizes the deterministic restarts (identical
  // cover for every value — restart r always draws Rng::derive(seed, r) and
  // the winner is the stable (cover size, restart index) tie-break).
  CommonOptions common;
  // Per-stitch DFS budget: how many vertex expansions a tail may explore
  // while looking for a head to merge with. Large enough to behave as
  // exhaustive on the evaluation graphs; bounds worst-case blowup.
  std::size_t search_budget = 4096;
  // Deterministic mode: number of restarts with permuted merge order; the
  // smallest cover wins. Greedy-plus-augmentation is order-sensitive;
  // restarts recover the last percent toward the true minimum.
  int deterministic_restarts = 4;
  // Randomized mode only: probability of accepting a found stitch. The
  // Dyer–Frieze random greedy matcher commits to random local choices
  // instead of exhausting alternatives; rejection makes covers non-maximal,
  // breaking long tested paths at random points. That is the mechanism that
  // moves terminal switches around between rounds (defeating detours) at
  // the cost of more probes — the paper reports Randomized SDNProbe sends
  // 72% more test packets on average (§VIII-B).
  double stitch_accept_probability = 0.65;
};

class MlpcSolver {
 public:
  // Restarts run on the caller's pool, so callers that solve every round
  // (e.g. FaultLocalizer) reuse one set of workers. A null pool means
  // serial, whatever `threads` says.
  explicit MlpcSolver(MlpcConfig config = {}, util::ThreadPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  // Computes a legal path cover of the snapshot's rule graph with no
  // remaining legal stitch.
  Cover solve(const AnalysisSnapshot& snapshot) const;

  // Verification helper (used by tests and asserts): true when no pair of
  // cover paths can be legally concatenated through the rule graph within
  // the search budget — the Theorem-4 local-optimality condition.
  bool is_stitch_free(const AnalysisSnapshot& snapshot,
                      const Cover& cover) const;

 private:
  Cover solve_once(const AnalysisSnapshot& snapshot, std::uint64_t seed) const;

  MlpcConfig config_;
  util::ThreadPool* pool_;
};

}  // namespace sdnprobe::core

#include "core/mlpc.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <span>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"

namespace sdnprobe::core {
namespace {

// Cross-solver aggregates; the returned Cover stays the algorithmic output
// and telemetry never feeds back into search decisions. The budget counter
// is bumped from restart workers, so it must be (and is) atomic.
struct MlpcInstruments {
  telemetry::Counter& solves;
  telemetry::Counter& restarts;
  telemetry::Counter& budget_consumed;

  static MlpcInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static MlpcInstruments i{
        reg.counter("mlpc.solves"),
        reg.counter("mlpc.restarts"),
        reg.counter("mlpc.search_budget_consumed"),
    };
    return i;
  }
};

// Epoch-stamped visited set. Each stitch or augment query calls clear(),
// which bumps the epoch instead of zeroing V entries, so a query costs only
// the vertices it touches. The stamps are zeroed only when the 16-bit epoch
// wraps (once per 65,535 queries), which keeps the array small and the wrap
// path exercised on the Table II graphs.
class VisitedSet {
 public:
  explicit VisitedSet(int vertex_count)
      : stamp_(static_cast<std::size_t>(vertex_count), 0) {}

  void clear() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  bool contains(VertexId v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }
  void insert(VertexId v) { stamp_[static_cast<std::size_t>(v)] = epoch_; }

 private:
  std::vector<std::uint16_t> stamp_;
  std::uint16_t epoch_ = 0;
};

// Mutable cover under construction.
struct WorkPath {
  std::vector<VertexId> vertices;
  hsa::HeaderSpace output_space;
  bool alive = true;
};

struct StitchResult {
  int target_path = -1;               // path whose head we reached
  std::vector<VertexId> route;        // intermediate vertices (may be empty)
  hsa::HeaderSpace stitched_space;    // forward space of the merged path
};

// Pushes `hs` through `vertices` in order (stopping once it is empty): the
// forward header space of a path segment.
hsa::HeaderSpace propagate_along(const AnalysisSnapshot& g, hsa::HeaderSpace hs,
                                 std::span<const VertexId> vertices) {
  for (const VertexId v : vertices) {
    if (hs.is_empty()) break;
    hs = g.propagate(hs, v);
  }
  return hs;
}

// Searches for a path head legally reachable from `from_path`'s tail.
// DFS over step-1 successors, propagating the forward header space exactly.
// Already-covered vertices may be traversed (lazy transitive closure).
// `visited` is caller-owned scratch, reused across searches.
class StitchSearch {
 public:
  StitchSearch(const AnalysisSnapshot& g, const std::vector<WorkPath>& paths,
               const std::vector<int>& head_path_of, VisitedSet& visited,
               std::size_t budget, util::Rng* rng,
               double accept_probability = 1.0)
      : g_(g),
        paths_(paths),
        head_path_of_(head_path_of),
        visited_(visited),
        budget_(budget),
        rng_(rng),
        accept_probability_(accept_probability) {}

  // How much of the construction-time budget is left; callers subtract from
  // the configured budget to meter consumption.
  std::size_t budget_remaining() const { return budget_; }

  std::optional<StitchResult> find(int from_path) {
    visited_.clear();
    route_.clear();
    from_path_ = from_path;
    const WorkPath& p = paths_[static_cast<std::size_t>(from_path)];
    if (rng_) return random_walk(p.vertices.back(), p.output_space);
    return dfs(p.vertices.back(), p.output_space);
  }

 private:
  // Randomized mode: one random greedy walk, no backtracking — the
  // Dyer–Frieze random-matching analogue. Walks that dead-end leave the
  // tail unmerged, which is what breaks long chains at random points and
  // why Randomized SDNProbe sends more probes (§V-C, Fig. 8(a)) while its
  // tested-path terminals vary from round to round.
  std::optional<StitchResult> random_walk(VertexId at,
                                          hsa::HeaderSpace space) {
    // Random rejection up front: some tails simply stay path ends this
    // round, which is what renders terminal positions unpredictable.
    if (!rng_->next_bool(accept_probability_)) return std::nullopt;
    while (budget_ > 0) {
      const auto sspan = g_.successors(at);
      std::vector<VertexId> succ(sspan.begin(), sspan.end());
      rng_->shuffle(succ);
      VertexId advance_to = -1;
      hsa::HeaderSpace advance_space;
      for (const VertexId w : succ) {
        if (visited_.contains(w)) continue;
        --budget_;
        visited_.insert(w);
        const int q = head_path_of_[static_cast<std::size_t>(w)];
        if (q >= 0 && q != from_path_ &&
            paths_[static_cast<std::size_t>(q)].alive) {
          hsa::HeaderSpace through = propagate_along(
              g_, space, paths_[static_cast<std::size_t>(q)].vertices);
          if (!through.is_empty()) {
            return StitchResult{q, route_, std::move(through)};
          }
        }
        hsa::HeaderSpace next = g_.propagate(space, w);
        if (!next.is_empty()) {
          advance_to = w;
          advance_space = std::move(next);
          break;  // single walk: commit to the first viable continuation
        }
      }
      if (advance_to < 0) return std::nullopt;  // dead end: give up
      route_.push_back(advance_to);
      at = advance_to;
      space = std::move(advance_space);
    }
    return std::nullopt;
  }

  std::optional<StitchResult> dfs(VertexId at, const hsa::HeaderSpace& space) {
    // Visit heads with few feeders first: a successor only we can reach must
    // be claimed by us or it stays a singleton; heads with many predecessors
    // can still be stitched by someone else. This ordering recovers most of
    // what full Hopcroft–Karp augmentation would, at a fraction of the cost.
    // The snapshot precomputes the ordering once for all restarts/workers.
    for (const VertexId w : g_.successors_by_fanin(at)) {
      if (visited_.contains(w)) continue;
      if (budget_ == 0) return std::nullopt;
      --budget_;
      visited_.insert(w);
      // Candidate: w heads another alive path — try the full merge.
      const int q = head_path_of_[static_cast<std::size_t>(w)];
      if (q >= 0 && q != from_path_ &&
          paths_[static_cast<std::size_t>(q)].alive) {
        hsa::HeaderSpace through = propagate_along(
            g_, space, paths_[static_cast<std::size_t>(q)].vertices);
        if (!through.is_empty()) {
          return StitchResult{q, route_, std::move(through)};
        }
      }
      // Traverse w as an intermediate hop.
      hsa::HeaderSpace next = g_.propagate(space, w);
      if (next.is_empty()) continue;
      route_.push_back(w);
      if (auto r = dfs(w, next)) return r;
      route_.pop_back();
    }
    return std::nullopt;
  }

  const AnalysisSnapshot& g_;
  const std::vector<WorkPath>& paths_;
  const std::vector<int>& head_path_of_;
  VisitedSet& visited_;
  std::size_t budget_;
  util::Rng* rng_;
  double accept_probability_ = 1.0;
  int from_path_ = -1;
  std::vector<VertexId> route_;
};

// Applies a found stitch: `pi` absorbs the target path (and the interposed
// route) and the target's head stops being a head.
void commit_merge(std::vector<WorkPath>& paths, std::vector<int>& head_path_of,
                  int pi, StitchResult result) {
  WorkPath& p = paths[static_cast<std::size_t>(pi)];
  WorkPath& q = paths[static_cast<std::size_t>(result.target_path)];
  head_path_of[static_cast<std::size_t>(q.vertices.front())] = -1;
  p.vertices.insert(p.vertices.end(), result.route.begin(),
                    result.route.end());
  p.vertices.insert(p.vertices.end(), q.vertices.begin(), q.vertices.end());
  p.output_space = std::move(result.stitched_space);
  q.alive = false;
  q.vertices.clear();
}

// First (path, index) location of each vertex across alive cover paths.
struct Loc {
  int path = -1;
  int idx = -1;

  bool operator==(const Loc&) const = default;
};

// From-scratch twin of LocationIndex, checked against it under
// SDNPROBE_DCHECK after every relocation.
std::vector<Loc> build_locations(int vertex_count,
                                 const std::vector<WorkPath>& paths) {
  std::vector<Loc> loc(static_cast<std::size_t>(vertex_count));
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    if (!paths[pi].alive) continue;
    for (std::size_t i = 0; i < paths[pi].vertices.size(); ++i) {
      Loc& l = loc[static_cast<std::size_t>(paths[pi].vertices[i])];
      if (l.path < 0) {
        l.path = static_cast<int>(pi);
        l.idx = static_cast<int>(i);
      }
    }
  }
  return loc;
}

// The augmentation phase's first-(path, index) index, updated in place after
// each successful augmentation at the cost of the two rewritten paths.
//
// Each vertex keeps a singly linked list, in one flat node pool, of the slots
// (path, index) it was recorded at. A node is live while its path is alive
// and the slot still holds the vertex; dead nodes are dropped the next time
// the vertex is relocated. An augmentation rewrites only the augmenting path
// p and its donor r, and every vertex leaving the donor or a path it kills
// lands on the new p or r. So after one, every vertex whose slots changed
// is on p or r: relocate() records the current slots of those vertices and
// takes each one's least live slot. Every other vertex's slots lie on
// untouched paths, so its entry still holds.
class LocationIndex {
 public:
  LocationIndex(int vertex_count, const std::vector<WorkPath>& paths)
      : first_(static_cast<std::size_t>(vertex_count)),
        head_(static_cast<std::size_t>(vertex_count), -1) {
    for (std::size_t pi = 0; pi < paths.size(); ++pi) {
      if (!paths[pi].alive) continue;
      const auto& vs = paths[pi].vertices;
      for (std::size_t i = 0; i < vs.size(); ++i) {
        push_node(vs[i], static_cast<int>(pi), static_cast<int>(i));
        Loc& l = first_[static_cast<std::size_t>(vs[i])];
        if (l.path < 0) l = Loc{static_cast<int>(pi), static_cast<int>(i)};
      }
    }
  }

  const std::vector<Loc>& locations() const { return first_; }

  // Brings the index up to date after an augmentation that rewrote path `p`
  // and donor `r` (-1 when no donor was used).
  void relocate(const std::vector<WorkPath>& paths, int p, int r) {
    for (const int pi : {p, r}) {
      if (pi < 0) continue;
      const auto& vs = paths[static_cast<std::size_t>(pi)].vertices;
      for (std::size_t i = 0; i < vs.size(); ++i) {
        record(vs[i], pi, static_cast<int>(i));
      }
    }
    for (const int pi : {p, r}) {
      if (pi < 0) continue;
      for (const VertexId v : paths[static_cast<std::size_t>(pi)].vertices) {
        refresh(paths, v);
      }
    }
  }

 private:
  struct Node {
    int path;
    int idx;
    int next;  // -1 ends the list
  };

  void push_node(VertexId v, int path, int idx) {
    int& head = head_[static_cast<std::size_t>(v)];
    const Node node{path, idx, head};
    if (free_ >= 0) {
      head = free_;
      free_ = nodes_[static_cast<std::size_t>(free_)].next;
      nodes_[static_cast<std::size_t>(head)] = node;
    } else {
      head = static_cast<int>(nodes_.size());
      nodes_.push_back(node);
    }
  }

  // Adds slot (path, idx) to v's list unless it is already there.
  void record(VertexId v, int path, int idx) {
    for (int n = head_[static_cast<std::size_t>(v)]; n >= 0;
         n = nodes_[static_cast<std::size_t>(n)].next) {
      const Node& node = nodes_[static_cast<std::size_t>(n)];
      if (node.path == path && node.idx == idx) return;
    }
    push_node(v, path, idx);
  }

  // Unlinks v's dead nodes and sets its entry to the least live slot.
  void refresh(const std::vector<WorkPath>& paths, VertexId v) {
    Loc best;
    int* link = &head_[static_cast<std::size_t>(v)];
    while (*link >= 0) {
      const int n = *link;
      Node& node = nodes_[static_cast<std::size_t>(n)];
      const WorkPath& path = paths[static_cast<std::size_t>(node.path)];
      if (!path.alive ||
          static_cast<std::size_t>(node.idx) >= path.vertices.size() ||
          path.vertices[static_cast<std::size_t>(node.idx)] != v) {
        *link = node.next;
        node.next = free_;
        free_ = n;
        continue;
      }
      if (best.path < 0 || node.path < best.path ||
          (node.path == best.path && node.idx < best.idx)) {
        best = Loc{node.path, node.idx};
      }
      link = &node.next;
    }
    first_[static_cast<std::size_t>(v)] = best;
  }

  std::vector<Loc> first_;
  std::vector<int> head_;  // per vertex: first node of its list, -1 if none
  std::vector<Node> nodes_;
  int free_ = -1;  // head of the free-node list
};

// One alternation of a legal augmenting path (Definition 3): the stranded
// tail of `pi` either finds a free head outright, or captures the suffix of
// a donor path whose freshly exposed tail can merge onto a free head.
// Returns true when the total path count decreased by one, and then sets
// `donor` to the path whose suffix was captured (-1 for a plain merge). The
// augmenting DFS marks `visited`; the nested donor-tail search, which runs
// while that DFS is live, marks `secondary_visited`.
bool augment(const AnalysisSnapshot& g, std::vector<WorkPath>& paths,
             std::vector<int>& head_path_of, const std::vector<Loc>& loc,
             int pi, std::size_t budget, VisitedSet& visited,
             VisitedSet& secondary_visited, int& donor) {
  WorkPath& p = paths[static_cast<std::size_t>(pi)];
  visited.clear();
  donor = -1;
  std::vector<VertexId> route;

  std::function<bool(VertexId, const hsa::HeaderSpace&)> dfs =
      [&](VertexId at, const hsa::HeaderSpace& space) -> bool {
    for (const VertexId w : g.successors(at)) {
      if (visited.contains(w) || budget == 0) continue;
      --budget;
      visited.insert(w);

      const int q = head_path_of[static_cast<std::size_t>(w)];
      if (q >= 0 && q != pi && paths[static_cast<std::size_t>(q)].alive) {
        // Free head: plain merge (the greedy move, retried post-rearrange).
        hsa::HeaderSpace through = propagate_along(
            g, space, paths[static_cast<std::size_t>(q)].vertices);
        if (!through.is_empty()) {
          commit_merge(paths, head_path_of, pi,
                       StitchResult{q, route, std::move(through)});
          return true;
        }
      } else if (const Loc l = loc[static_cast<std::size_t>(w)];
                 l.path >= 0 && l.path != pi && l.idx > 0 &&
                 paths[static_cast<std::size_t>(l.path)].alive) {
        // Donor suffix capture: R = prefix | w-suffix; we take the suffix.
        WorkPath& r = paths[static_cast<std::size_t>(l.path)];
        if (static_cast<std::size_t>(l.idx) < r.vertices.size() &&
            r.vertices[static_cast<std::size_t>(l.idx)] == w) {
          hsa::HeaderSpace through = propagate_along(
              g, space,
              std::span(r.vertices).subspan(static_cast<std::size_t>(l.idx)));
          if (!through.is_empty()) {
            const WorkPath p_backup = p;
            const WorkPath r_backup = r;
            // Tentatively rearrange.
            p.vertices.insert(p.vertices.end(), route.begin(), route.end());
            p.vertices.insert(p.vertices.end(), r.vertices.begin() + l.idx,
                              r.vertices.end());
            p.output_space = std::move(through);
            r.vertices.resize(static_cast<std::size_t>(l.idx));
            r.output_space = propagate_along(g, g.full_space(), r.vertices);
            // The donor's new tail must land on a free head for the
            // rearrangement to pay off.
            StitchSearch secondary(g, paths, head_path_of, secondary_visited,
                                   budget, nullptr);
            if (auto res = secondary.find(l.path)) {
              commit_merge(paths, head_path_of, l.path, std::move(*res));
              donor = l.path;
              return true;
            }
            p = p_backup;
            r = r_backup;
          }
        }
      }

      hsa::HeaderSpace next = g.propagate(space, w);
      if (next.is_empty()) continue;
      route.push_back(w);
      if (dfs(w, next)) return true;
      route.pop_back();
    }
    return false;
  };

  return dfs(p.vertices.back(), p.output_space);
}

}  // namespace

Cover MlpcSolver::solve(const AnalysisSnapshot& snapshot) const {
  telemetry::TraceSpan span("mlpc.solve");
  MlpcInstruments::get().solves.add();
  if (config_.common.randomized) {
    Cover cover = solve_once(snapshot, config_.common.seed);
    span.annotate("cover_size", static_cast<double>(cover.path_count()));
    telemetry::MetricsRegistry::global()
        .histogram("mlpc.cover_size")
        .record(static_cast<double>(cover.path_count()));
    return cover;
  }
  // Deterministic restarts: each restart r draws its own derived stream, so
  // the set of candidate covers is a pure function of (snapshot, seed) no
  // matter how the restarts are scheduled. Restarts are independent reads of
  // the immutable snapshot; each writes only its own result slot.
  const std::size_t restarts =
      static_cast<std::size_t>(std::max(1, config_.deterministic_restarts));
  std::vector<Cover> results(restarts);
  auto run_restart = [&](std::size_t r) {
    results[r] = solve_once(
        snapshot, util::Rng::derive(config_.common.seed, static_cast<std::uint64_t>(r)));
  };
  util::parallel_for(pool_, restarts, run_restart);
  // Stable best-cover selection: smallest cover wins, restart index breaks
  // ties — an index-order scan with strict `<`, independent of the pool.
  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (results[r].path_count() < results[best].path_count()) best = r;
  }
  MlpcInstruments::get().restarts.add(restarts);
  span.annotate("restarts", static_cast<double>(restarts));
  span.annotate("cover_size",
                static_cast<double>(results[best].path_count()));
  telemetry::MetricsRegistry::global()
      .histogram("mlpc.cover_size")
      .record(static_cast<double>(results[best].path_count()));
  return std::move(results[best]);
}

Cover MlpcSolver::solve_once(const AnalysisSnapshot& g,
                             std::uint64_t seed) const {
  const int V = g.vertex_count();
  std::vector<WorkPath> paths;
  paths.reserve(static_cast<std::size_t>(V));
  std::vector<int> head_path_of(static_cast<std::size_t>(V), -1);
  for (VertexId v = 0; v < V; ++v) {
    if (!g.is_active(v)) continue;  // deactivated by an incremental update
    WorkPath p;
    p.vertices = {v};
    // The graph stores out(v) = T(in(v), v.s) = propagate(full, v).
    p.output_space = g.out_space(v);
    assert(!p.output_space.is_empty());
    head_path_of[static_cast<std::size_t>(v)] = static_cast<int>(paths.size());
    paths.push_back(std::move(p));
  }

  util::Rng rng(seed);
  util::Rng* rng_ptr = config_.common.randomized ? &rng : nullptr;

  // One visited set per search that can be live at once: the greedy stitch
  // search (reused by augment's nested donor-tail search, which never
  // overlaps it) and augment's own DFS. Allocated once per solve.
  VisitedSet search_visited(V);

  std::deque<int> worklist;
  {
    std::vector<int> order(paths.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    // Merge order is permuted in both modes: randomized mode for per-round
    // path diversity, deterministic mode across best-of restarts.
    rng.shuffle(order);
    worklist.assign(order.begin(), order.end());
  }

  while (!worklist.empty()) {
    const int pi = worklist.front();
    worklist.pop_front();
    if (!paths[static_cast<std::size_t>(pi)].alive) continue;
    StitchSearch search(g, paths, head_path_of, search_visited,
                        config_.search_budget, rng_ptr,
                        config_.stitch_accept_probability);
    auto result = search.find(pi);
    MlpcInstruments::get().budget_consumed.add(
        config_.search_budget - search.budget_remaining());
    if (!result.has_value()) continue;  // tail is final; path complete
    commit_merge(paths, head_path_of, pi, std::move(*result));
    // The merged path has a new tail; try to extend it further.
    worklist.push_back(pi);
  }

  // Augmentation sweeps (deterministic mode): the greedy phase can strand a
  // tail because another path claimed its only reachable head. The paper's
  // modified Hopcroft–Karp fixes such conflicts with legal augmenting paths
  // (Definition 3); we realize the same rearrangement as a split-and-merge:
  // a stranded tail may capture the *suffix* of another cover path when the
  // donor's freshly exposed tail can itself merge onto a free head — one
  // alternation of the augmenting path, applied until a fixed point.
  if (!config_.common.randomized) {
    VisitedSet augment_visited(V);
    LocationIndex loc(V, paths);
    for (int sweep = 0; sweep < 4; ++sweep) {
      bool progress = false;
      for (std::size_t pi = 0; pi < paths.size(); ++pi) {
        if (!paths[pi].alive) continue;
        int donor = -1;
        if (augment(g, paths, head_path_of, loc.locations(),
                    static_cast<int>(pi), config_.search_budget,
                    augment_visited, search_visited, donor)) {
          progress = true;
          loc.relocate(paths, static_cast<int>(pi), donor);
          SDNPROBE_DCHECK(loc.locations() == build_locations(V, paths));
        }
      }
      if (!progress) break;
    }
  }

  Cover cover;
  for (auto& p : paths) {
    if (!p.alive) continue;
    cover.paths.push_back(
        CoverPath{std::move(p.vertices), std::move(p.output_space)});
  }
  return cover;
}

bool MlpcSolver::is_stitch_free(const AnalysisSnapshot& g,
                                const Cover& cover) const {
  // Rebuild the work structures from the finished cover and probe each tail.
  std::vector<WorkPath> paths;
  std::vector<int> head_path_of(static_cast<std::size_t>(g.vertex_count()),
                                -1);
  for (const auto& cp : cover.paths) {
    WorkPath p;
    p.vertices = cp.vertices;
    p.output_space = cp.output_space;
    head_path_of[static_cast<std::size_t>(cp.vertices.front())] =
        static_cast<int>(paths.size());
    paths.push_back(std::move(p));
  }
  VisitedSet visited(g.vertex_count());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    StitchSearch search(g, paths, head_path_of, visited, config_.search_budget,
                        nullptr);
    if (search.find(static_cast<int>(i)).has_value()) return false;
  }
  return true;
}

}  // namespace sdnprobe::core

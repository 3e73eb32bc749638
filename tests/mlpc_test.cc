// Tests for the rule graph and the MLPC solver, including the paper's
// worked example (Figures 3-6) and property sweeps over synthesized
// rulesets.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <span>

#include "core/analysis_snapshot.h"
#include "core/legal_paths.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "flow/synthesizer.h"
#include "telemetry/metrics.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace sdnprobe::core {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

// The paper's Figure 3 network: switches A..E (0..4); boxed rules per
// switch; topology A-B, B-C, B-D, C-E, D-E.
struct PaperExample {
  flow::RuleSet rules;
  flow::EntryId a1, b1, b2, b3, c1, c2, d1, e1, e2, e3;
};

PaperExample make_paper_example() {
  topo::Graph g(5);  // 0=A 1=B 2=C 3=D 4=E
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  PaperExample ex{flow::RuleSet(g, 8), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  flow::RuleSet& rs = ex.rules;
  auto add = [&rs](flow::SwitchId sw, int prio, const char* match,
                   flow::Action action, const char* set = nullptr) {
    flow::FlowEntry e;
    e.switch_id = sw;
    e.priority = prio;
    e.match = ts(match);
    e.action = action;
    if (set) e.set_field = ts(set);
    return rs.add_entry(e);
  };
  const auto out = [&rs](flow::SwitchId from, flow::SwitchId to) {
    return flow::Action::output(*rs.ports().port_to(from, to));
  };
  const auto host = [&rs](flow::SwitchId sw) {
    return flow::Action::output(rs.ports().host_port(sw));
  };
  // Figure 3 (priorities: stack top = highest).
  ex.a1 = add(0, 10, "00101xxx", out(0, 1));
  ex.b1 = add(1, 30, "0010xxxx", out(1, 2));
  ex.b2 = add(1, 20, "0011xxxx", out(1, 2));
  ex.b3 = add(1, 10, "000xxxxx", out(1, 3));
  ex.c1 = add(2, 20, "00100xxx", out(2, 4));
  ex.c2 = add(2, 10, "001xxxxx", out(2, 4));
  ex.d1 = add(3, 10, "000xxxxx", out(3, 4), "0111xxxx");
  ex.e1 = add(4, 30, "0010xxxx", host(4));
  ex.e2 = add(4, 20, "001xxxxx", host(4));
  ex.e3 = add(4, 10, "0111xxxx", host(4));
  return ex;
}

TEST(RuleGraphPaper, EdgesMatchFigure3) {
  const PaperExample ex = make_paper_example();
  RuleGraph g(ex.rules);
  EXPECT_EQ(g.vertex_count(), 10);
  EXPECT_TRUE(g.dead_entries().empty());
  EXPECT_TRUE(g.find_cycle().empty());

  auto has_edge = [&](flow::EntryId from, flow::EntryId to) {
    const auto& succ = g.successors(g.vertex_for(from));
    for (const VertexId w : succ) {
      if (g.entry_of(w) == to) return true;
    }
    return false;
  };
  // Edges the paper draws.
  EXPECT_TRUE(has_edge(ex.a1, ex.b1));
  EXPECT_TRUE(has_edge(ex.b1, ex.c1));
  EXPECT_TRUE(has_edge(ex.b1, ex.c2));
  EXPECT_TRUE(has_edge(ex.b2, ex.c2));
  EXPECT_TRUE(has_edge(ex.b3, ex.d1));
  EXPECT_TRUE(has_edge(ex.c1, ex.e1));
  EXPECT_TRUE(has_edge(ex.c2, ex.e1));
  EXPECT_TRUE(has_edge(ex.c2, ex.e2));
  EXPECT_TRUE(has_edge(ex.d1, ex.e3));
  // Non-edges the paper calls out: c1 -> e2 is blocked because every
  // 00100xxx packet matches e1 (higher priority) at E.
  EXPECT_FALSE(has_edge(ex.c1, ex.e2));
  // b2's output cannot match c1 (0011 vs 00100).
  EXPECT_FALSE(has_edge(ex.b2, ex.c1));
}

TEST(RuleGraphPaper, LegalityExamples) {
  const PaperExample ex = make_paper_example();
  RuleGraph g(ex.rules);
  auto v = [&](flow::EntryId e) { return g.vertex_for(e); };
  // Definition 1's example: a1 -> b1 -> c2 -> e1 is legal (00101xxx works).
  EXPECT_TRUE(g.is_legal_path({v(ex.a1), v(ex.b1), v(ex.c2), v(ex.e1)}));
  // §V-B: the MPC path a1 -> b1 -> c1 -> e1 is NOT legal (empty meet).
  EXPECT_FALSE(g.is_legal_path({v(ex.a1), v(ex.b1), v(ex.c1), v(ex.e1)}));
  // §V-A closure example: b2 -> c2 -> e2 is legal (header 0011xxxx).
  EXPECT_TRUE(g.is_legal_path({v(ex.b2), v(ex.c2), v(ex.e2)}));
  // d1's set field rewrites to 0111xxxx, which e3 matches.
  EXPECT_TRUE(g.is_legal_path({v(ex.b3), v(ex.d1), v(ex.e3)}));
  const auto in =
      g.path_input_space({v(ex.a1), v(ex.b1), v(ex.c2), v(ex.e1)});
  EXPECT_TRUE(in.contains(ts("00101000")));
  EXPECT_FALSE(in.contains(ts("00100000")));
}

TEST(RuleGraphPaper, ClosureContainsTransitiveLegalEdge) {
  const PaperExample ex = make_paper_example();
  RuleGraph g(ex.rules);
  const auto closure = g.closure_edges();
  // Figure 4's red edge: (b2, e2) via the legal path b2 -> c2 -> e2.
  const auto& from_b2 =
      closure[static_cast<std::size_t>(g.vertex_for(ex.b2))];
  EXPECT_NE(std::find(from_b2.begin(), from_b2.end(), g.vertex_for(ex.e2)),
            from_b2.end());
}

TEST(MlpcPaper, FourTestPacketsCoverFigureThree) {
  // Figure 6: the minimum legal path cover has 4 paths for the 10 rules.
  const PaperExample ex = make_paper_example();
  RuleGraph g(ex.rules);
  AnalysisSnapshot snap(g);
  const Cover cover = MlpcSolver().solve(snap);
  EXPECT_EQ(cover.path_count(), 4u);
  std::set<VertexId> covered;
  for (const auto& p : cover.paths) {
    EXPECT_TRUE(g.is_legal_path(p.vertices));
    covered.insert(p.vertices.begin(), p.vertices.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), g.vertex_count());
}

TEST(MlpcPaper, LegalPathStats) {
  const PaperExample ex = make_paper_example();
  RuleGraph g(ex.rules);
  const auto stats = compute_legal_path_stats(g);
  EXPECT_GT(stats.total_paths, 0u);
  EXPECT_GE(stats.max_length, 4u);  // a1->b1->c2->e1
  EXPECT_FALSE(stats.truncated);
}

TEST(RuleGraph, DeadEntriesReported) {
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry shadow;
  shadow.switch_id = 0;
  shadow.priority = 20;
  shadow.match = ts("001xxxxx");
  shadow.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(shadow);
  flow::FlowEntry dead;
  dead.switch_id = 0;
  dead.priority = 10;
  dead.match = ts("00101xxx");  // fully inside the higher-priority match
  dead.action = flow::Action::drop();
  const flow::EntryId dead_id = rs.add_entry(dead);
  RuleGraph graph(rs);
  ASSERT_EQ(graph.dead_entries().size(), 1u);
  EXPECT_EQ(graph.dead_entries()[0], dead_id);
  EXPECT_EQ(graph.vertex_for(dead_id), -1);
}

// Property sweep over synthesized rulesets: every cover is legal, complete,
// stitch-free (Theorem 4's local-optimality condition), and the randomized
// variant is a valid (if larger) cover that varies by seed.
struct MlpcCase {
  std::uint64_t seed;
  long rules;
};

class MlpcProperty : public ::testing::TestWithParam<MlpcCase> {};

TEST_P(MlpcProperty, CoverInvariants) {
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = GetParam().seed;
  const topo::Graph topo = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = GetParam().rules;
  sc.seed = GetParam().seed + 99;
  const flow::RuleSet rs = flow::synthesize_ruleset(topo, sc);
  RuleGraph g(rs);
  AnalysisSnapshot snap(g);
  ASSERT_TRUE(g.find_cycle().empty());

  MlpcSolver solver;
  const Cover cover = solver.solve(snap);
  std::set<VertexId> covered;
  for (const auto& p : cover.paths) {
    ASSERT_FALSE(p.vertices.empty());
    EXPECT_TRUE(g.is_legal_path(p.vertices));
    EXPECT_FALSE(p.output_space.is_empty());
    covered.insert(p.vertices.begin(), p.vertices.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), g.vertex_count());
  EXPECT_TRUE(solver.is_stitch_free(snap, cover));

  MlpcConfig rc;
  rc.common.randomized = true;
  rc.common.seed = GetParam().seed;
  const Cover random_cover = MlpcSolver(rc).solve(snap);
  std::set<VertexId> rcovered;
  for (const auto& p : random_cover.paths) {
    EXPECT_TRUE(g.is_legal_path(p.vertices));
    rcovered.insert(p.vertices.begin(), p.vertices.end());
  }
  EXPECT_EQ(static_cast<int>(rcovered.size()), g.vertex_count());
  EXPECT_GE(random_cover.path_count(), cover.path_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpcProperty,
                         ::testing::Values(MlpcCase{1, 400}, MlpcCase{2, 700},
                                           MlpcCase{3, 1000},
                                           MlpcCase{4, 1500}));

// A test-local MLPC for one deterministic restart, with blind augmentation
// sweeps: the greedy stitch phase and the split-and-merge augment() of
// core/mlpc.cc in their plain form. A head merge pushes the space through
// the whole head path, locations are rebuilt from scratch for every
// augment(), and every sweep tries every alive path until one makes no
// progress. MlpcSolver's sweeps, which retry only the paths a success may
// have changed, must return the same cover. solve_worklist() runs those
// retry-only sweeps over an eager reader index instead, to count the
// augment() calls they owe.
class BlindSweepMlpc {
 public:
  BlindSweepMlpc(const AnalysisSnapshot& g, std::size_t budget)
      : g_(g), budget_(budget) {}

  Cover solve(std::uint64_t seed) {
    greedy(seed);
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t pi = 0; pi < paths_.size(); ++pi) {
        if (paths_[pi].alive && augment(static_cast<int>(pi))) {
          progress = true;
          ++augmentations_;
        }
      }
    }
    return cover();
  }

  // The greedy phase, then MlpcSolver's sweep worklist: a path is retried
  // only while dirty. The reader index is eager: a failed attempt replaces
  // its path's read set at once, and a success marks dirty every path
  // whose latest failed attempt read a vertex of the rewritten paths.
  Cover solve_worklist(std::uint64_t seed) {
    greedy(seed);
    std::vector<std::set<int>> readers(head_.size());
    std::vector<std::vector<VertexId>> last_reads(paths_.size());
    std::vector<std::uint8_t> dirty(paths_.size(), 1);
    std::vector<VertexId> reads;
    reads_ = &reads;
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t pi = 0; pi < paths_.size(); ++pi) {
        if (!paths_[pi].alive || !dirty[pi]) continue;
        dirty[pi] = 0;
        reads.clear();
        ++attempts_;
        if (!augment(static_cast<int>(pi))) {
          for (const VertexId v : last_reads[pi]) {
            readers[static_cast<std::size_t>(v)].erase(static_cast<int>(pi));
          }
          last_reads[pi] = reads;
          for (const VertexId v : reads) {
            readers[static_cast<std::size_t>(v)].insert(static_cast<int>(pi));
          }
          continue;
        }
        progress = true;
        for (const int changed : {static_cast<int>(pi), donor_}) {
          if (changed < 0) continue;
          for (const VertexId v : path(changed).vertices) {
            for (const int q : readers[static_cast<std::size_t>(v)]) {
              dirty[static_cast<std::size_t>(q)] = 1;
            }
          }
          dirty[static_cast<std::size_t>(changed)] = 1;
        }
      }
    }
    reads_ = nullptr;
    return cover();
  }

  int augmentations() const { return augmentations_; }
  // augment() calls solve_worklist() made.
  std::uint64_t attempts() const { return attempts_; }

 private:
  struct Path {
    std::vector<VertexId> vertices;
    hsa::HeaderSpace output_space;
    bool alive = true;
  };
  struct Stitch {
    int target;
    std::vector<VertexId> route;
    hsa::HeaderSpace space;
  };

  Path& path(int i) { return paths_[static_cast<std::size_t>(i)]; }

  void greedy(std::uint64_t seed) {
    const auto V = static_cast<std::size_t>(g_.vertex_count());
    head_.assign(V, -1);
    for (VertexId v = 0; v < g_.vertex_count(); ++v) {
      if (!g_.is_active(v)) continue;
      head_[static_cast<std::size_t>(v)] = static_cast<int>(paths_.size());
      paths_.push_back(Path{{v}, g_.out_space(v), true});
    }
    util::Rng rng(seed);
    std::vector<int> order(paths_.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::deque<int> work(order.begin(), order.end());
    while (!work.empty()) {
      const int pi = work.front();
      work.pop_front();
      if (!path(pi).alive) continue;
      std::vector<std::uint8_t> visited(V, 0);
      std::size_t budget = budget_;
      std::vector<VertexId> route;
      if (auto found = stitch(pi, path(pi).vertices.back(),
                              path(pi).output_space, visited, budget, route)) {
        merge(pi, std::move(*found));
        work.push_back(pi);
      }
    }
  }

  Cover cover() const {
    Cover cover;
    for (const Path& p : paths_) {
      if (p.alive) cover.paths.push_back(CoverPath{p.vertices, p.output_space});
    }
    return cover;
  }

  // Marks w visited, logging it as read while an augment() sweep records.
  void visit(std::vector<std::uint8_t>& visited, VertexId w) {
    visited[static_cast<std::size_t>(w)] = 1;
    if (reads_ != nullptr) reads_->push_back(w);
  }

  hsa::HeaderSpace along(hsa::HeaderSpace hs,
                         std::span<const VertexId> vertices) const {
    for (const VertexId v : vertices) {
      if (hs.is_empty()) break;
      hs = g_.propagate(hs, v);
    }
    return hs;
  }

  void merge(int pi, Stitch s) {
    Path& q = path(s.target);
    head_[static_cast<std::size_t>(q.vertices.front())] = -1;
    Path& p = path(pi);
    p.vertices.insert(p.vertices.end(), s.route.begin(), s.route.end());
    p.vertices.insert(p.vertices.end(), q.vertices.begin(), q.vertices.end());
    p.output_space = std::move(s.space);
    q.alive = false;
    q.vertices.clear();
  }

  // The greedy stitch DFS: successors by fan-in, one shared budget.
  std::optional<Stitch> stitch(int from, VertexId at,
                               const hsa::HeaderSpace& space,
                               std::vector<std::uint8_t>& visited,
                               std::size_t& budget,
                               std::vector<VertexId>& route) {
    for (const VertexId w : g_.successors_by_fanin(at)) {
      if (visited[static_cast<std::size_t>(w)]) continue;
      if (budget == 0) return std::nullopt;
      --budget;
      visit(visited, w);
      const int q = head_[static_cast<std::size_t>(w)];
      if (q >= 0 && q != from && path(q).alive) {
        hsa::HeaderSpace through = along(space, path(q).vertices);
        if (!through.is_empty()) return Stitch{q, route, std::move(through)};
      }
      hsa::HeaderSpace next = g_.propagate(space, w);
      if (next.is_empty()) continue;
      route.push_back(w);
      if (auto found = stitch(from, w, next, visited, budget, route)) {
        return found;
      }
      route.pop_back();
    }
    return std::nullopt;
  }

  bool augment(int pi) {
    // First (path, index) of every vertex, from scratch.
    std::vector<std::pair<int, int>> loc(head_.size(), {-1, -1});
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      if (!paths_[p].alive) continue;
      for (std::size_t i = 0; i < paths_[p].vertices.size(); ++i) {
        auto& l = loc[static_cast<std::size_t>(paths_[p].vertices[i])];
        if (l.first < 0) l = {static_cast<int>(p), static_cast<int>(i)};
      }
    }
    std::vector<std::uint8_t> visited(head_.size(), 0);
    std::size_t budget = budget_;
    std::vector<VertexId> route;
    donor_ = -1;
    std::function<bool(VertexId, const hsa::HeaderSpace&)> dfs =
        [&](VertexId at, const hsa::HeaderSpace& space) {
          for (const VertexId w : g_.successors(at)) {
            if (visited[static_cast<std::size_t>(w)] || budget == 0) continue;
            --budget;
            visit(visited, w);
            const int q = head_[static_cast<std::size_t>(w)];
            const auto [lp, li] = loc[static_cast<std::size_t>(w)];
            if (q >= 0 && q != pi && path(q).alive) {
              hsa::HeaderSpace through = along(space, path(q).vertices);
              if (!through.is_empty()) {
                merge(pi, Stitch{q, route, std::move(through)});
                return true;
              }
            } else if (lp >= 0 && lp != pi && li > 0 && path(lp).alive) {
              Path& p = path(pi);
              Path& r = path(lp);
              hsa::HeaderSpace through =
                  along(space, std::span(r.vertices)
                                   .subspan(static_cast<std::size_t>(li)));
              if (!through.is_empty()) {
                const Path p_backup = p;
                const Path r_backup = r;
                p.vertices.insert(p.vertices.end(), route.begin(), route.end());
                p.vertices.insert(p.vertices.end(), r.vertices.begin() + li,
                                  r.vertices.end());
                p.output_space = std::move(through);
                r.vertices.resize(static_cast<std::size_t>(li));
                r.output_space = along(g_.full_space(), r.vertices);
                std::vector<std::uint8_t> visited2(head_.size(), 0);
                std::size_t budget2 = budget;
                std::vector<VertexId> route2;
                if (auto found = stitch(lp, r.vertices.back(), r.output_space,
                                        visited2, budget2, route2)) {
                  merge(lp, std::move(*found));
                  donor_ = lp;
                  return true;
                }
                p = p_backup;
                r = r_backup;
              }
            }
            hsa::HeaderSpace next = g_.propagate(space, w);
            if (next.is_empty()) continue;
            route.push_back(w);
            if (dfs(w, next)) return true;
            route.pop_back();
          }
          return false;
        };
    return dfs(path(pi).vertices.back(), path(pi).output_space);
  }

  const AnalysisSnapshot& g_;
  std::size_t budget_;
  std::vector<Path> paths_;
  std::vector<int> head_;
  int augmentations_ = 0;
  // Set by a successful augment(): the path whose suffix it captured, or -1.
  int donor_ = -1;
  // While solve_worklist() sweeps: every vertex an augment() visits.
  std::vector<VertexId>* reads_ = nullptr;
  std::uint64_t attempts_ = 0;
};

// A synthesized network whose size, subnet bits, short-prefix and
// set-field shares and path count are drawn from `net`.
flow::RuleSet drawn_network(std::uint64_t net) {
  util::Rng draw(net);
  topo::GeneratorConfig tc;
  tc.node_count = 8 + static_cast<int>(draw.next_below(20));
  tc.link_count = tc.node_count + 4 +
                  static_cast<int>(draw.next_below(
                      static_cast<std::uint64_t>(tc.node_count)));
  tc.seed = net;
  const topo::Graph topo = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 300 + static_cast<long>(draw.next_below(3000));
  sc.subnet_bits = 6 + static_cast<int>(draw.next_below(8));
  sc.short_prefix_fraction = draw.next_double() * 0.8;
  sc.set_field_fraction = draw.next_double() * 0.3;
  sc.k_paths = 1 + static_cast<int>(draw.next_below(4));
  sc.seed = net * 7 + 1;
  return flow::synthesize_ruleset(topo, sc);
}

// Single-restart deterministic covers equal the blind-sweep reference,
// path for path and cube for cube, on synthesized networks whose size,
// subnet bits, short-prefix and set-field shares and path count are drawn
// from the seed. On these seeds a path whose attempt failed earlier in a
// sweep succeeds after a later augmentation changed what it read: a solver
// that drops the dirty marks of the readers, or of the donor's readers
// only, returns a different cover on at least one of them.
TEST(MlpcWorklist, SingleRestartCoversMatchBlindSweeps) {
  int augmentations = 0;
  for (const std::uint64_t net : {55, 189, 265, 292, 579}) {
    const flow::RuleSet rs = drawn_network(net);
    RuleGraph g(rs);
    AnalysisSnapshot snap(g);
    for (const std::uint64_t seed : {1, 2}) {
      MlpcConfig mc;
      mc.deterministic_restarts = 1;
      mc.common.seed = seed;
      const Cover cover = MlpcSolver(mc).solve(snap);
      BlindSweepMlpc reference(snap, mc.search_budget);
      const Cover expected = reference.solve(util::Rng::derive(seed, 0));
      augmentations += reference.augmentations();
      ASSERT_EQ(cover.path_count(), expected.path_count())
          << "network " << net << " seed " << seed;
      for (std::size_t i = 0; i < cover.path_count(); ++i) {
        EXPECT_EQ(cover.paths[i].vertices, expected.paths[i].vertices)
            << "network " << net << " seed " << seed << " path " << i;
        EXPECT_EQ(cover.paths[i].output_space.cubes(),
                  expected.paths[i].output_space.cubes())
            << "network " << net << " seed " << seed << " path " << i;
      }
    }
  }
  // The sweeps did work: some augmentation succeeded somewhere.
  EXPECT_GT(augmentations, 0);
}

// MlpcSolver's lazy ReaderIndex owes exactly the augment() calls of the
// eager reference index, solve by solve, on the same networks. A reader
// index that loses the readers of a shared vertex (say, records a vertex
// only for its first reader) still returns the same covers there, since
// the calls it skips would have failed, but it makes fewer calls.
TEST(MlpcWorklist, AugmentAttemptsMatchEagerReaderIndex) {
  auto& reg = telemetry::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  telemetry::Counter& attempts = reg.counter("mlpc.augment_attempts");
  std::uint64_t total = 0;
  for (const std::uint64_t net : {55, 189, 265, 292, 579}) {
    const flow::RuleSet rs = drawn_network(net);
    RuleGraph g(rs);
    AnalysisSnapshot snap(g);
    for (const std::uint64_t seed : {1, 2}) {
      MlpcConfig mc;
      mc.deterministic_restarts = 1;
      mc.common.seed = seed;
      const std::uint64_t before = attempts.value();
      const Cover cover = MlpcSolver(mc).solve(snap);
      BlindSweepMlpc reference(snap, mc.search_budget);
      const Cover expected =
          reference.solve_worklist(util::Rng::derive(seed, 0));
      EXPECT_EQ(cover.path_count(), expected.path_count())
          << "network " << net << " seed " << seed;
      EXPECT_EQ(attempts.value() - before, reference.attempts())
          << "network " << net << " seed " << seed;
      total += reference.attempts();
    }
  }
  reg.set_enabled(was_enabled);
  EXPECT_GT(total, 0u);
}

TEST(MlpcRandomized, DifferentSeedsGiveDifferentTerminals) {
  topo::GeneratorConfig tc;
  tc.node_count = 14;
  tc.link_count = 26;
  tc.seed = 8;
  const topo::Graph topo = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 900;
  sc.seed = 77;
  const flow::RuleSet rs = flow::synthesize_ruleset(topo, sc);
  RuleGraph g(rs);
  AnalysisSnapshot snap(g);
  std::set<std::set<VertexId>> terminal_sets;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    MlpcConfig mc;
    mc.common.randomized = true;
    mc.common.seed = seed;
    const Cover c = MlpcSolver(mc).solve(snap);
    std::set<VertexId> terms;
    for (const auto& p : c.paths) terms.insert(p.vertices.back());
    terminal_sets.insert(std::move(terms));
  }
  EXPECT_GT(terminal_sets.size(), 1u)
      << "randomized covers must vary across seeds (§V-C)";
}

}  // namespace
}  // namespace sdnprobe::core

// Tests for the rule graph and the MLPC solver, including the paper's
// worked example (Figures 3-6) and property sweeps over synthesized
// rulesets.
#include <gtest/gtest.h>

#include <set>

#include "core/analysis_snapshot.h"
#include "core/legal_paths.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"

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

// Tests for RuleGraph construction (§V-A). The indexed build and the
// incremental churn path agree with a naive all-pairs reference and with a
// rebuild on random rulesets with set fields and goto tables. A golden pin
// holds the exact adjacency order and the deterministic MLPC cover of a
// fixed 10k-rule network, so a build change that reorders successor lists
// (and with them covers and probe headers) fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace sdnprobe::core {
namespace {

// A cube agreeing with `base` on an exact prefix of up to `max_prefix` bits
// and on a few scattered bits past it.
hsa::TernaryString random_cube(util::Rng& rng, const hsa::TernaryString& base,
                               int max_prefix) {
  hsa::TernaryString c(base.width());
  const int prefix =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_prefix)));
  for (int k = 0; k < base.width(); ++k) {
    if (k < prefix || rng.next_bool(0.05)) c.set(k, base.get(k));
  }
  return c;
}

// A ring of `switches` switches, each with `tables` tables of random
// entries: outputs to neighbors or the host port, gotos to later tables,
// drops, and set fields on about a third of the entries.
flow::RuleSet random_ruleset(util::Rng& rng, int width) {
  const int switches = 3 + static_cast<int>(rng.next_below(3));
  topo::Graph g(switches);
  for (int s = 0; s < switches; ++s) g.add_edge(s, (s + 1) % switches);
  flow::RuleSet rules(g, width);
  std::vector<hsa::TernaryString> bases;
  for (int b = 0; b < 3; ++b) {
    hsa::TernaryString base(width);
    for (int k = 0; k < width; ++k) {
      base.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
    }
    bases.push_back(base);
  }
  constexpr int kTables = 3;
  const int n = 40 + static_cast<int>(rng.next_below(60));
  for (int i = 0; i < n; ++i) {
    flow::FlowEntry e;
    e.switch_id = static_cast<flow::SwitchId>(rng.next_below(switches));
    e.table_id = static_cast<flow::TableId>(rng.next_below(kTables));
    e.priority = static_cast<int>(rng.next_below(6));
    e.match = random_cube(rng, bases[rng.pick_index(bases.size())], 14);
    if (rng.next_bool(0.3)) {
      e.set_field = random_cube(rng, bases[rng.pick_index(bases.size())], 4);
    }
    const std::uint64_t kind = rng.next_below(4);
    if (kind == 0 && e.table_id + 1 < kTables) {
      e.action = flow::Action::goto_table(
          e.table_id + 1 +
          static_cast<flow::TableId>(rng.next_below(kTables - e.table_id - 1)));
    } else if (kind == 3) {
      e.action = flow::Action::drop();
    } else {
      // Ports 0..degree-1 reach neighbors; port degree is the host port.
      const auto degree = rules.topology().neighbors(e.switch_id).size();
      e.action = flow::Action::output(
          static_cast<flow::PortId>(rng.next_below(degree + 1)));
    }
    rules.add_entry(std::move(e));
  }
  return rules;
}

bool spaces_meet(const hsa::HeaderSpace& a, const hsa::HeaderSpace& b) {
  for (const auto& ca : a.cubes()) {
    for (const auto& cb : b.cubes()) {
      if (ca.intersects(cb)) return true;
    }
  }
  return false;
}

std::optional<std::pair<flow::SwitchId, flow::TableId>> naive_handoff(
    const flow::RuleSet& rules, const flow::FlowEntry& e) {
  if (e.action.type == flow::ActionType::kGotoTable) {
    return std::make_pair(e.switch_id, e.action.next_table);
  }
  if (const auto peer = rules.next_switch(e.id)) {
    return std::make_pair(*peer, flow::TableId{0});
  }
  return std::nullopt;
}

TEST(RuleGraphBuild, EdgesMatchNaiveAllPairsReference) {
  util::Rng rng(41);
  for (const int width : {8, 16, 70}) {
    for (int trial = 0; trial < 15; ++trial) {
      const flow::RuleSet rules = random_ruleset(rng, width);
      const RuleGraph g(rules);
      std::set<flow::EntryId> dead;
      for (flow::EntryId id = 0;
           id < static_cast<flow::EntryId>(rules.entry_count()); ++id) {
        const hsa::HeaderSpace in = rules.input_space(id);
        const VertexId v = g.vertex_for(id);
        if (in.is_empty()) {
          EXPECT_EQ(v, -1);
          dead.insert(id);
          continue;
        }
        ASSERT_GE(v, 0);
        EXPECT_EQ(g.in_space(v).cubes(), in.cubes()) << "entry " << id;
      }
      EXPECT_EQ(std::set<flow::EntryId>(g.dead_entries().begin(),
                                        g.dead_entries().end()),
                dead);
      std::size_t edges = 0;
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        const flow::FlowEntry& e = rules.entry(g.entry_of(v));
        const auto target = naive_handoff(rules, e);
        std::set<VertexId> expected;
        for (VertexId w = 0; w < g.vertex_count(); ++w) {
          const flow::FlowEntry& q = rules.entry(g.entry_of(w));
          if (w == v || !target.has_value() ||
              target->first != q.switch_id || target->second != q.table_id) {
            continue;
          }
          if (spaces_meet(g.out_space(v), g.in_space(w))) expected.insert(w);
        }
        const auto succ = g.successors(v);
        const std::set<VertexId> actual(succ.begin(), succ.end());
        EXPECT_EQ(actual.size(), succ.size()) << "duplicate successor";
        EXPECT_EQ(actual, expected)
            << "width " << width << " trial " << trial << " vertex " << v;
        edges += expected.size();
      }
      EXPECT_EQ(g.edge_count(), edges);
    }
  }
}

std::set<std::pair<flow::EntryId, flow::EntryId>> edge_relation(
    const RuleGraph& g) {
  std::set<std::pair<flow::EntryId, flow::EntryId>> edges;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (!g.is_active(v)) continue;
    for (const VertexId w : g.successors(v)) {
      edges.emplace(g.entry_of(v), g.entry_of(w));
    }
  }
  return edges;
}

// The churn path (connect_vertex) on the same random rulesets: set fields
// may rewrite matched bits and gotos hand off within a switch, which the
// synthesizer's networks in the churn fuzz test never do.
TEST(RuleGraphBuild, ChurnMatchesRebuildOnRandomRulesets) {
  util::Rng rng(43);
  for (const int width : {8, 16, 70}) {
    for (int trial = 0; trial < 10; ++trial) {
      const flow::RuleSet source = random_ruleset(rng, width);
      flow::RuleSet rules(source.topology(), width);
      const std::size_t half = source.entry_count() / 2;
      auto replay = [&](std::size_t i) {
        flow::FlowEntry e = source.entry(static_cast<flow::EntryId>(i));
        e.id = -1;
        return rules.add_entry(std::move(e));
      };
      for (std::size_t i = 0; i < half; ++i) replay(i);
      RuleGraph g(rules);
      for (std::size_t i = half; i < source.entry_count(); ++i) {
        g.apply_entry_added(replay(i));
        if (rng.next_bool(0.3)) {
          const auto victim = static_cast<flow::EntryId>(rng.next_below(i + 1));
          if (rules.remove_entry(victim)) g.apply_entry_removed(victim);
        }
      }
      const RuleGraph rebuilt(rules);
      EXPECT_EQ(edge_relation(g), edge_relation(rebuilt))
          << "width " << width << " trial " << trial;
      EXPECT_EQ(g.edge_count(), rebuilt.edge_count());
    }
  }
}

// bench_monitor_churn's 10k-rule network (30 switches, 54 links).
flow::RuleSet ten_k_network() {
  topo::GeneratorConfig tc;
  tc.node_count = 30;
  tc.link_count = 54;
  tc.seed = 3;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 10000;
  sc.subnet_bits = 12;
  sc.aggregates = true;
  sc.k_paths = 3;
  sc.seed = 3 * 7919 + 13;
  return flow::synthesize_ruleset(g, sc);
}

TEST(RuleGraphBuild, GoldenAdjacencyOrderAndCover) {
  const flow::RuleSet rules = ten_k_network();
  const AnalysisSnapshot snap = AnalysisSnapshot::build(rules);
  const RuleGraph& g = snap.graph();
  // Every vertex's successor sequence, in order.
  std::uint64_t adjacency = static_cast<std::uint64_t>(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto succ = g.successors(v);
    adjacency = adjacency * 1000003u + succ.size();
    for (const VertexId w : succ) {
      adjacency = adjacency * 1000003u + static_cast<std::uint64_t>(w);
    }
  }
  const Cover cover = MlpcSolver().solve(snap);
  std::uint64_t cover_fp = cover.path_count();
  for (const CoverPath& path : cover.paths) {
    for (const VertexId v : path.vertices) {
      cover_fp = cover_fp * 1000003u + static_cast<std::uint64_t>(v);
    }
  }
  // Captured from the all-pairs-scan build this indexed build replaced.
  EXPECT_EQ(g.vertex_count(), 9808);
  EXPECT_EQ(g.edge_count(), 25230u);
  EXPECT_EQ(adjacency, 17622417678315721005ull);
  EXPECT_EQ(cover.path_count(), 2624u);
  EXPECT_EQ(cover_fp, 9979110213392525675ull);
}

}  // namespace
}  // namespace sdnprobe::core

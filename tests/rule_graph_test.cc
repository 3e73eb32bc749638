// Tests for RuleGraph construction (§V-A). The indexed build and the
// incremental churn path agree with a naive all-pairs reference and with a
// rebuild on random rulesets with set fields and goto tables. A golden pin
// holds the exact adjacency order, the deterministic and randomized MLPC
// covers and the probe headers of a fixed 10k-rule network, so a build or
// cover change that reorders successor lists, paths or cubes fails here.
// Oracle tests hold the identity set-field fast paths of propagate() and
// path_input_space() to the unskipped transforms, cube for cube, and the
// two legality tests (forward and backward) to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "flow/prefix_index.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace sdnprobe::core {
namespace {

// A cube agreeing with `base` on an exact prefix of up to `max_prefix` bits
// and, with probability `scatter` each, on bits past it.
hsa::TernaryString random_cube(util::Rng& rng, const hsa::TernaryString& base,
                               int max_prefix, double scatter) {
  hsa::TernaryString c(base.width());
  const int prefix =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_prefix)));
  for (int k = 0; k < base.width(); ++k) {
    if (k < prefix || rng.next_bool(scatter)) c.set(k, base.get(k));
  }
  return c;
}

// A ring of `switches` switches, each with `tables` tables of random
// entries: outputs to neighbors or the host port, gotos to later tables,
// drops, and set fields on a `set_field_share` of the entries. Matches and
// set fields pin each bit past their prefix with probability `scatter`.
// Priorities are drawn from `priorities` levels. With `varied_runs`, a
// third of the matches have an exact prefix of any length up to the width
// and a third wildcard H[0], so their leading exact runs cover every length.
flow::RuleSet random_ruleset(util::Rng& rng, int width, double scatter = 0.05,
                             double set_field_share = 0.3, int priorities = 6,
                             bool varied_runs = false) {
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
    e.priority = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(priorities)));
    const hsa::TernaryString& base = bases[rng.pick_index(bases.size())];
    const std::uint64_t style = varied_runs ? rng.next_below(3) : 0;
    e.match = random_cube(rng, base, style == 1 ? width + 1 : 14, scatter);
    if (style == 2) e.match.set(0, hsa::Trit::kWild);
    if (rng.next_bool(set_field_share)) {
      e.set_field =
          random_cube(rng, bases[rng.pick_index(bases.size())], 4, scatter);
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

// The step-1 edge scan that flow::LeadingRunIndex replaced: per (switch,
// table), vertices bucketed by the value of their first min(12, width)
// header bits when those are all exact, the rest in a wildcard list. An
// out-cube exact on those bits scans its own bucket, otherwise every
// agreeing bucket by ascending key; then the wildcard list. Returns every
// vertex's successor sequence.
std::vector<std::vector<VertexId>> bucket_scan_successors(const RuleGraph& g) {
  const flow::RuleSet& rules = g.rules();
  const int bits = std::min(12, rules.header_width());
  const std::uint32_t all_exact = (std::uint32_t{1} << bits) - 1;
  struct Buckets {
    std::map<std::uint32_t, std::vector<VertexId>> exact;
    std::vector<VertexId> wildcard;
  };
  std::map<std::pair<flow::SwitchId, flow::TableId>, Buckets> index;
  auto match_of = [&](VertexId v) -> const hsa::TernaryString& {
    return rules.entry(g.entry_of(v)).match;
  };
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const flow::FlowEntry& e = rules.entry(g.entry_of(v));
    Buckets& b = index[{e.switch_id, e.table_id}];
    const flow::PrefixKey key = flow::prefix_key(e.match, bits);
    (key.exact == all_exact ? b.exact[key.value] : b.wildcard).push_back(v);
  }
  std::vector<std::vector<VertexId>> succ(
      static_cast<std::size_t>(g.vertex_count()));
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto target = rules.handoff_target(rules.entry(g.entry_of(v)));
    if (!target.has_value()) continue;
    const auto it = index.find(*target);
    if (it == index.end()) continue;
    std::vector<VertexId>& out = succ[static_cast<std::size_t>(v)];
    for (const auto& cube : g.out_space(v).cubes()) {
      auto take = [&](const std::vector<VertexId>& ids) {
        for (const VertexId w : ids) {
          if (w == v || !match_of(w).intersects(cube) ||
              std::find(out.begin(), out.end(), w) != out.end()) {
            continue;
          }
          for (const auto& in_cube : g.in_space(w).cubes()) {
            if (cube.intersects(in_cube)) {
              out.push_back(w);
              break;
            }
          }
        }
      };
      const flow::PrefixKey key = flow::prefix_key(cube, bits);
      if (key.exact == all_exact) {
        const auto bucket = it->second.exact.find(key.value);
        if (bucket != it->second.exact.end()) take(bucket->second);
      } else {
        for (const auto& [value, ids] : it->second.exact) {
          if (((value ^ key.value) & key.exact) == 0) take(ids);
        }
      }
      take(it->second.wildcard);
    }
  }
  return succ;
}

// The leading-run index hands build_edges() exactly the candidates of the
// bucket scan it replaced, in the same order: every successor sequence
// matches, on rulesets with long exact prefixes, wildcard-led matches,
// equal priorities and set fields.
TEST(RuleGraphBuild, EdgeIndexMatchesBucketScanOrder) {
  util::Rng rng(47);
  // Vertices whose successors are not in ascending order: the order the
  // bucket scan fixes is not a sort the index could get for free.
  std::size_t unsorted = 0;
  for (const int width : {8, 16, 70, 128}) {
    // Fewer scattered exact bits on wide headers keep the input spaces
    // (and the Debug run) small.
    const double scatter = width > 16 ? 0.02 : 0.05;
    for (int trial = 0; trial < 10; ++trial) {
      const int priorities = trial % 2 == 0 ? 1 : 3;
      const flow::RuleSet rules =
          random_ruleset(rng, width, scatter, 0.3, priorities, true);
      const RuleGraph g(rules);
      const auto expected = bucket_scan_successors(g);
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        const auto succ = g.successors(v);
        EXPECT_EQ(std::vector<VertexId>(succ.begin(), succ.end()),
                  expected[static_cast<std::size_t>(v)])
            << "width " << width << " trial " << trial << " vertex " << v;
        if (!std::is_sorted(succ.begin(), succ.end())) ++unsorted;
      }
    }
  }
  EXPECT_GT(unsorted, 0u);
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

// Polynomial hash of a cover's vertex sequences.
std::uint64_t cover_fingerprint(const Cover& cover) {
  std::uint64_t fp = cover.path_count();
  for (const CoverPath& path : cover.paths) {
    for (const VertexId v : path.vertices) {
      fp = fp * 1000003u + static_cast<std::uint64_t>(v);
    }
  }
  return fp;
}

std::uint64_t text_fingerprint(std::uint64_t fp, const std::string& text) {
  for (const char c : text) {
    fp = fp * 1000003u + static_cast<std::uint64_t>(c);
  }
  return fp * 1000003u + '|';
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
  // The cover's output spaces, cube lists in order.
  std::uint64_t output_fp = cover.path_count();
  for (const CoverPath& path : cover.paths) {
    output_fp = text_fingerprint(output_fp, path.output_space.to_string());
  }
  // Single-restart deterministic covers at three seeds. Best-of-4 keeps one
  // restart's cover; these keep each one's augmentation result.
  std::vector<std::uint64_t> single_restart_fp;
  for (const std::uint64_t seed : {1, 2, 3}) {
    MlpcConfig mc;
    mc.deterministic_restarts = 1;
    mc.common.seed = seed;
    single_restart_fp.push_back(
        cover_fingerprint(MlpcSolver(mc).solve(snap)));
  }
  // Randomized covers (§V-C) at three seeds.
  std::vector<std::uint64_t> randomized_fp;
  for (const std::uint64_t seed : {1, 2, 3}) {
    MlpcConfig mc;
    mc.common.randomized = true;
    mc.common.seed = seed;
    randomized_fp.push_back(cover_fingerprint(MlpcSolver(mc).solve(snap)));
  }
  // The deterministic cover's probe headers and expected returns.
  util::Rng rng(5);
  const std::vector<Probe> probes = ProbeEngine(snap).make_probes(cover, rng);
  std::uint64_t probe_fp = probes.size();
  for (const Probe& probe : probes) {
    probe_fp = text_fingerprint(probe_fp, probe.header.to_string());
    probe_fp = text_fingerprint(probe_fp, probe.expected_return.to_string());
  }
  // Captured from the all-pairs-scan build this indexed build replaced.
  EXPECT_EQ(g.vertex_count(), 9808);
  EXPECT_EQ(g.edge_count(), 25230u);
  EXPECT_EQ(adjacency, 17622417678315721005ull);
  EXPECT_EQ(cover.path_count(), 2624u);
  EXPECT_EQ(cover_fingerprint(cover), 9979110213392525675ull);
  // Captured from the rescanning location index and the unskipped identity
  // transforms that the in-place index and the fast path replaced.
  EXPECT_EQ(output_fp, 11295370610402052419ull);
  EXPECT_EQ(single_restart_fp,
            (std::vector<std::uint64_t>{5695168895141839927ull,
                                        14471721284236331200ull,
                                        224257766454073583ull}));
  EXPECT_EQ(randomized_fp,
            (std::vector<std::uint64_t>{18208853019844127900ull,
                                        3706627389957218145ull,
                                        1145407354524932060ull}));
  EXPECT_EQ(probes.size(), 2624u);
  EXPECT_EQ(probe_fp, 5780369882050885653ull);
}

// A header space of 1-4 cubes near random vertices' matches (a few exact
// bits relaxed, a few pinned), sometimes with a hole cut out.
hsa::HeaderSpace random_space(util::Rng& rng, const RuleGraph& g) {
  const int width = g.rules().header_width();
  auto near_match = [&] {
    const VertexId v =
        static_cast<VertexId>(rng.next_below(
            static_cast<std::uint64_t>(g.vertex_count())));
    hsa::TernaryString c = g.rules().entry(g.entry_of(v)).match;
    for (int k = 0; k < width; ++k) {
      if (rng.next_bool(0.2)) {
        c.set(k, hsa::Trit::kWild);
      } else if (c.get(k) == hsa::Trit::kWild && rng.next_bool(0.03)) {
        c.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
      }
    }
    return c;
  };
  const int n = 1 + static_cast<int>(rng.next_below(4));
  hsa::HeaderSpace hs(width);
  for (int i = 0; i < n; ++i) {
    hs = hs.union_with(hsa::HeaderSpace(near_match()));
  }
  if (rng.next_bool(0.5)) hs = hs.subtract(near_match());
  return hs;
}

// Rulesets for the oracles below, at widths 8-128. Past width 70 the
// scatter falls so a match pins about as many stray bits as at 70: at 0.05,
// overlapping 128-bit matches fragment input spaces into thousands of cubes
// and the build alone takes seconds. Even so, a few input spaces run to
// thousands of cubes; the oracles skip those vertices, whose folds would
// take most of the test's time.
flow::RuleSet oracle_ruleset(util::Rng& rng, int width) {
  return random_ruleset(rng, width, std::min(0.05, 3.5 / width));
}
constexpr std::size_t kOracleMaxCubes = 64;

// The fast paths skip T(·, s) and its pre-image when s writes nothing. They
// must agree, cube for cube, with the unskipped transforms at every width
// and for set fields that do write bits.
TEST(RuleGraphPropagate, MatchesUnskippedTransformCubeForCube) {
  util::Rng rules_rng(47);
  util::Rng rng(48);
  std::size_t identity = 0;
  std::size_t rewriting = 0;
  std::size_t non_empty = 0;
  for (const int width : {8, 16, 33, 64, 70, 100, 128}) {
    for (int trial = 0; trial < 4; ++trial) {
      const flow::RuleSet rules = oracle_ruleset(rules_rng, width);
      const RuleGraph g(rules);
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        if (g.in_space(v).cube_count() > kOracleMaxCubes) continue;
        const hsa::TernaryString& sf = rules.entry(g.entry_of(v)).set_field;
        (sf.wildcard_count() == width ? identity : rewriting) += 1;
        for (int q = 0; q < 3; ++q) {
          const hsa::HeaderSpace hs = random_space(rng, g);
          const hsa::HeaderSpace got = g.propagate(hs, v);
          EXPECT_EQ(got.cubes(),
                    hs.intersect(g.in_space(v)).transform(sf).cubes())
              << "width " << width << " vertex " << v << " set "
              << sf.to_string() << " space " << hs.to_string();
          EXPECT_EQ(got.width(), width);
          non_empty += got.is_empty() ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(identity, 100u);
  EXPECT_GT(rewriting, 100u);
  EXPECT_GT(non_empty, 100u);
}

TEST(RuleGraphPropagate, PathInputSpaceMatchesUnskippedBackwardFold) {
  util::Rng rules_rng(53);
  util::Rng rng(54);
  std::size_t legal = 0;
  for (const int width : {8, 16, 33, 64, 70, 100, 128}) {
    for (int trial = 0; trial < 4; ++trial) {
      const flow::RuleSet rules = oracle_ruleset(rules_rng, width);
      const RuleGraph g(rules);
      auto small = [&g](VertexId v) {
        return g.in_space(v).cube_count() <= kOracleMaxCubes;
      };
      for (VertexId start = 0; start < g.vertex_count(); ++start) {
        if (!small(start)) continue;
        // A random step-1 walk of up to 6 small-space vertices.
        std::vector<VertexId> path{start};
        while (path.size() < 6 && !g.successors(path.back()).empty()) {
          const auto succ = g.successors(path.back());
          const VertexId next = succ[rng.pick_index(succ.size())];
          if (!small(next)) break;
          path.push_back(next);
        }
        hsa::HeaderSpace expected = hsa::HeaderSpace::full(width);
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          expected = expected
                         .inverse_transform(rules.entry(g.entry_of(*it)).set_field)
                         .intersect(g.in_space(*it));
          if (expected.is_empty()) break;
        }
        const hsa::HeaderSpace got = g.path_input_space(path);
        EXPECT_EQ(got.cubes(), expected.cubes())
            << "width " << width << " start " << start;
        legal += got.is_empty() || path.size() < 2 ? 0 : 1;
      }
    }
  }
  EXPECT_GT(legal, 100u);
}

// A path is legal (forward propagation leaves some header) exactly when
// some injectable header traverses it (the backward fold is non-empty), so
// callers may test legality with either. Random step-1 walks on rulesets
// where most entries rewrite bits reach both outcomes.
TEST(RuleGraphPropagate, LegalPathIffInputSpaceNonEmpty) {
  util::Rng rules_rng(67);
  util::Rng rng(68);
  std::size_t legal = 0;
  std::size_t illegal = 0;
  for (const int width : {8, 16, 33, 64}) {
    for (int trial = 0; trial < 6; ++trial) {
      const flow::RuleSet rules = random_ruleset(
          rules_rng, width, std::min(0.05, 3.5 / width),
          /*set_field_share=*/0.8);
      const RuleGraph g(rules);
      for (VertexId start = 0; start < g.vertex_count(); ++start) {
        if (g.in_space(start).cube_count() > kOracleMaxCubes) continue;
        std::vector<VertexId> path{start};
        while (path.size() < 6 && !g.successors(path.back()).empty()) {
          const auto succ = g.successors(path.back());
          const VertexId next = succ[rng.pick_index(succ.size())];
          if (g.in_space(next).cube_count() > kOracleMaxCubes) break;
          path.push_back(next);
          const bool is_legal = g.is_legal_path(path);
          EXPECT_EQ(is_legal, !g.path_input_space(path).is_empty())
              << "width " << width << " start " << start << " length "
              << path.size();
          (is_legal ? legal : illegal) += 1;
        }
      }
    }
  }
  EXPECT_GT(legal, 100u);
  EXPECT_GT(illegal, 100u);
}

// MLPC starts every singleton path from the stored out-space instead of
// propagating the full space through the vertex, so the two must be the same
// cube list on every vertex — after a build and along a churn stream.
TEST(RuleGraphPropagate, OutSpaceEqualsPropagateFromFullUnderChurn) {
  flow::RuleSet rules = ten_k_network();
  RuleGraph g(rules);
  auto expect_out_spaces = [&](int step) {
    const hsa::HeaderSpace full =
        hsa::HeaderSpace::full(rules.header_width());
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      ASSERT_EQ(g.out_space(v).cubes(), g.propagate(full, v).cubes())
          << "vertex " << v << " after step " << step;
    }
  };
  expect_out_spaces(0);

  // Reservoir entries on the same topology, installed under fresh ids,
  // interleaved with removals of random live entries.
  flow::SynthesizerConfig rc;
  rc.target_entry_count = 600;
  rc.subnet_bits = 12;
  rc.set_field_fraction = 0.2;
  rc.seed = 59;
  const flow::RuleSet reservoir =
      flow::synthesize_ruleset(rules.topology(), rc);
  util::Rng rng(61);
  std::vector<flow::EntryId> live;
  for (std::size_t i = 0; i < rules.entry_count(); ++i) {
    live.push_back(static_cast<flow::EntryId>(i));
  }
  std::size_t next = 0;
  for (int step = 1; step <= 300; ++step) {
    if (next < reservoir.entry_count() && rng.next_bool(0.5)) {
      flow::FlowEntry e = reservoir.entry(static_cast<flow::EntryId>(next++));
      e.id = -1;
      const flow::EntryId id = rules.add_entry(std::move(e));
      g.apply_entry_added(id);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.pick_index(live.size());
      const flow::EntryId id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(rules.remove_entry(id));
      g.apply_entry_removed(id);
    }
    if (step % 100 == 0) expect_out_spaces(step);
  }
}

}  // namespace
}  // namespace sdnprobe::core

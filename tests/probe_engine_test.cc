// Tests for probe synthesis: header legality and uniqueness, expected
// return headers under set-field rewrites, and the traffic-profile sampler.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

flow::RuleSet small_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 10;
  tc.link_count = 16;
  tc.seed = 3;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 600;
  sc.set_field_fraction = 0.2;  // plenty of rewrites to exercise transforms
  sc.seed = 4;
  return flow::synthesize_ruleset(g, sc);
}

TEST(ProbeEngine, HeadersAreUniqueAndLegal) {
  const flow::RuleSet rs = small_ruleset();
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);
  ProbeEngine engine(snap);
  util::Rng rng(5);
  const auto probes = engine.make_probes(cover, rng);
  EXPECT_EQ(probes.size(), cover.path_count());
  std::set<std::string> headers;
  for (const auto& p : probes) {
    EXPECT_TRUE(p.header.is_concrete());
    // The header lies in the path's injectable space (matches every tested
    // entry along the way).
    EXPECT_TRUE(graph.path_input_space(p.path).contains(p.header))
        << "illegal probe header";
    EXPECT_TRUE(headers.insert(p.header.to_string()).second)
        << "duplicate probe header violates §VI uniqueness";
  }
}

TEST(ProbeEngine, ExpectedReturnAppliesUpstreamSetFields) {
  // Two-switch chain where the first rule rewrites a host bit: the terminal
  // must expect the rewritten header.
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry first;
  first.switch_id = 0;
  first.priority = 10;
  first.match = ts("001xxxxx");
  first.set_field = ts("xxxxxxx1");
  first.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(first);
  flow::FlowEntry second;
  second.switch_id = 1;
  second.priority = 10;
  second.match = ts("001xxxxx");
  second.action = flow::Action::output(rs.ports().host_port(1));
  rs.add_entry(second);

  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(1);
  const auto probe =
      engine.make_probe({graph.vertex_for(0), graph.vertex_for(1)}, rng);
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->expected_return == probe->header.transform(ts("xxxxxxx1")));
  EXPECT_EQ(probe->inject_switch, 0);
  EXPECT_EQ(probe->terminal_entry, 1);
}

TEST(ProbeEngine, IllegalPathYieldsNoProbe) {
  const flow::RuleSet rs = small_ruleset();
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(2);
  // Two unrelated vertices rarely form a legal path; find a genuinely
  // illegal pair (no edge and disjoint spaces).
  for (VertexId a = 0; a < graph.vertex_count(); ++a) {
    for (VertexId b = 0; b < graph.vertex_count(); ++b) {
      if (a == b) continue;
      if (!graph.is_legal_path({a, b})) {
        EXPECT_FALSE(engine.make_probe({a, b}, rng).has_value());
        return;
      }
    }
  }
  FAIL() << "no illegal pair found (unexpected for this workload)";
}

TEST(ProbeEngine, ResetAllowsHeaderReuse) {
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry e;
  e.switch_id = 0;
  e.priority = 10;
  e.match = ts("0010101x");  // tiny space: 2 headers
  e.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(e);
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(1);
  ASSERT_TRUE(engine.make_probe({0}, rng).has_value());
  ASSERT_TRUE(engine.make_probe({0}, rng).has_value());
  EXPECT_FALSE(engine.make_probe({0}, rng).has_value())
      << "2-header space must exhaust after two unique probes";
  engine.reset_uniqueness();
  EXPECT_TRUE(engine.make_probe({0}, rng).has_value());
}

// The headers and stats make_probes gave before candidates were drawn on
// demand: phase A draws all `attempts` candidates of every path from its
// stream eagerly, phase B commits the first unused one, else the lex-min
// unused member. `later` counts headers committed from a candidate after
// the first.
struct EagerResult {
  std::vector<hsa::TernaryString> headers;  // of the probes made, in order
  ProbeStats stats;
  int later = 0;
};

EagerResult eager_probes(const AnalysisSnapshot& snap, const Cover& cover,
                         util::Rng& rng, int attempts,
                         const TrafficProfile* profile) {
  EagerResult out;
  const std::uint64_t base = rng.next();
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> used;
  for (std::size_t i = 0; i < cover.paths.size(); ++i) {
    const auto& path = cover.paths[i].vertices;
    if (path.empty()) continue;
    const hsa::HeaderSpace input = snap.path_input_space(path);
    if (input.is_empty()) continue;
    util::Rng stream(util::Rng::derive(base, i));
    std::vector<hsa::TernaryString> samples;
    for (int a = 0; a < attempts; ++a) {
      auto h = profile ? profile->sample(input, stream) : input.sample(stream);
      if (!h.has_value()) break;
      samples.push_back(*h);
    }
    std::optional<hsa::TernaryString> header;
    for (std::size_t k = 0; k < samples.size() && !header; ++k) {
      if (used.count(samples[k])) continue;
      header = samples[k];
      ++out.stats.headers_by_sampling;
      if (k > 0) ++out.later;
    }
    if (!header) {
      header = input.min_member(used);
      ++(header ? out.stats.headers_by_lexmin : out.stats.lexmin_failures);
    }
    if (!header) continue;
    used.insert(*header);
    out.headers.push_back(*header);
  }
  return out;
}

TEST(ProbeEngine, OnDemandCandidatesMatchEagerSampling) {
  // A 16-header path and a 32-header one containing it, each repeated in
  // the cover, so headers collide: later candidates, the lex-min fallback
  // and, once a space runs out, lex-min failures all occur.
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry first;
  first.switch_id = 0;
  first.priority = 10;
  first.match = ts("0010xxxx");
  first.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(first);
  flow::FlowEntry second;
  second.switch_id = 1;
  second.priority = 10;
  second.match = ts("001xxxxx");
  second.action = flow::Action::output(rs.ports().host_port(1));
  rs.add_entry(second);
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  const std::vector<VertexId> narrow = {graph.vertex_for(0),
                                        graph.vertex_for(1)};
  const std::vector<VertexId> wide = {graph.vertex_for(1)};
  Cover cover;
  for (int i = 0; i < 30; ++i) {
    cover.paths.emplace_back().vertices = i % 3 == 2 ? wide : narrow;
  }

  TrafficProfile profile;
  profile.add_flow(ts("00101xxx"), 5.0);
  profile.add_flow(ts("1xxxxxxx"), 1.0);  // overlaps no path: uniform
  util::ThreadPool pool(3);
  int later = 0;
  std::uint64_t lexmin = 0;
  // Exhausted spaces log a warning per path; keep the output readable.
  const util::LogLevel threshold = util::log_threshold();
  util::set_log_threshold(util::LogLevel::kError);
  for (const int attempts : {0, 1, 3, 16}) {
    for (const TrafficProfile* prof : {static_cast<TrafficProfile*>(nullptr),
                                       &profile}) {
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          ProbeEngineConfig config;
          config.sample_attempts = attempts;
          ProbeEngine engine(snap, config, p);
          util::Rng rng(seed);
          util::Rng ref_rng(seed);
          const auto probes = engine.make_probes(cover, rng, prof);
          const EagerResult want =
              eager_probes(snap, cover, ref_rng, attempts, prof);
          ASSERT_EQ(probes.size(), want.headers.size());
          for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_EQ(probes[i].header, want.headers[i])
                << "attempts " << attempts << " seed " << seed;
          }
          EXPECT_EQ(engine.stats(), want.stats);
          EXPECT_GT(want.stats.lexmin_failures, 0u);
          EXPECT_EQ(rng.next(), ref_rng.next());
          later += want.later;
          lexmin += want.stats.headers_by_lexmin;
        }
      }
    }
  }
  util::set_log_threshold(threshold);
  EXPECT_GT(later, 0) << "no header came from a candidate after the first";
  EXPECT_GT(lexmin, 0u) << "no header came from the lex-min fallback";
}

TEST(TrafficProfileTest, SampleBiasesTowardPopularCube) {
  TrafficProfile profile;
  const auto popular = ts("xxxx1111");
  profile.add_flow(popular, 10.0);
  util::Rng rng(9);
  const hsa::HeaderSpace space = hsa::HeaderSpace::full(8);
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    const auto h = profile.sample(space, rng);
    ASSERT_TRUE(h.has_value());
    if (popular.covers(*h)) ++hits;
  }
  EXPECT_GT(hits, 90) << "samples should come from the observed flow";
}

TEST(TrafficProfileTest, FallsBackWhenNoOverlap) {
  TrafficProfile profile;
  profile.add_flow(ts("1111xxxx"), 1.0);
  util::Rng rng(9);
  // The requested space is disjoint from every observed cube.
  const hsa::HeaderSpace space(ts("0000xxxx"));
  const auto h = profile.sample(space, rng);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(space.contains(*h));
}

TEST(TrafficProfileTest, PeriodSnapshotIsOneFlow) {
  TrafficProfile profile;
  profile.add_flow(ts("1111xxxx"), 1.0);
  profile.add_flow(ts("0000xxxx"), 1.0);
  util::Rng rng(4);
  const TrafficProfile snap = profile.period_snapshot(rng);
  EXPECT_EQ(snap.flow_count(), 1u);
}

}  // namespace
}  // namespace sdnprobe::core

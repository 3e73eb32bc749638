// Tests for flow tables, rulesets, the K-path synthesizer, and the campus
// ruleset generator. The generator tests double as linter self-checks: the
// rulesets they produce must stay free of error-severity diagnostics.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/linter.h"
#include "flow/campus.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace sdnprobe::flow {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

TEST(FlowTable, PriorityOrderedLookup) {
  FlowTable t;
  FlowEntry low;
  low.id = 1;
  low.priority = 10;
  low.match = ts("001xxxxx");
  FlowEntry high;
  high.id = 2;
  high.priority = 20;
  high.match = ts("00100xxx");
  t.insert(low);
  t.insert(high);
  // Inside the overlap, the higher priority wins.
  const FlowEntry* hit = t.lookup(ts("00100101"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2);
  // Outside it, the wider low-priority entry matches.
  hit = t.lookup(ts("00111111"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1);
  EXPECT_EQ(t.lookup(ts("11111111")), nullptr);
}

TEST(FlowTable, InputSpaceSubtractsOverlaps) {
  FlowTable t;
  FlowEntry low;
  low.id = 1;
  low.priority = 10;
  low.match = ts("001xxxxx");
  FlowEntry high;
  high.id = 2;
  high.priority = 20;
  high.match = ts("00100xxx");
  t.insert(low);
  t.insert(high);
  const hsa::HeaderSpace in = t.input_space(1);
  EXPECT_FALSE(in.contains(ts("00100111")));
  EXPECT_TRUE(in.contains(ts("00110000")));
  // The higher-priority entry keeps its full match as input.
  EXPECT_TRUE(t.input_space(2).contains(ts("00100111")));
}

TEST(FlowTable, OverlappingAboveReturnsHigherPriorityOverlapsOnly) {
  FlowTable t;
  FlowEntry wide;
  wide.id = 1;
  wide.priority = 10;
  wide.match = ts("001xxxxx");
  FlowEntry above;
  above.id = 2;
  above.priority = 20;
  above.match = ts("00100xxx");
  FlowEntry disjoint;
  disjoint.id = 3;
  disjoint.priority = 30;
  disjoint.match = ts("111xxxxx");
  t.insert(wide);
  t.insert(above);
  t.insert(disjoint);

  // The wide entry is overlapped from above by `above` only: `disjoint` has
  // higher priority but no shared packet.
  const auto over_wide = t.overlapping_above(wide);
  ASSERT_EQ(over_wide.size(), 1u);
  EXPECT_EQ(over_wide[0]->id, 2);

  // The top-priority entries see nothing above them.
  EXPECT_TRUE(t.overlapping_above(above).empty());
  EXPECT_TRUE(t.overlapping_above(disjoint).empty());
}

TEST(FlowTable, OverlappingAboveIgnoresEqualPriority) {
  FlowTable t;
  FlowEntry a;
  a.id = 1;
  a.priority = 10;
  a.match = ts("00xxxxxx");
  FlowEntry b;
  b.id = 2;
  b.priority = 10;
  b.match = ts("000xxxxx");
  t.insert(a);
  t.insert(b);
  // Equal priority is not "strictly higher": neither shadows the other.
  EXPECT_TRUE(t.overlapping_above(a).empty());
  EXPECT_TRUE(t.overlapping_above(b).empty());
}

TEST(FlowTable, EraseRemovesEntry) {
  FlowTable t;
  FlowEntry e;
  e.id = 7;
  e.priority = 5;
  e.match = ts("xxxxxxxx");
  t.insert(e);
  EXPECT_TRUE(t.erase(7));
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.lookup(ts("00000000")), nullptr);
}

// A random match drawn around one of a few base headers, so matches nest,
// overlap and share index keys: an exact prefix of the base of up to 16 bits
// (the synthesizer's routing entries) plus a few exact bits at every 29th
// position, which reach the second 64-bit word on wide headers. One match in
// four wildcards H[0], so it has no index key.
hsa::TernaryString random_match(util::Rng& rng,
                                const std::vector<hsa::TernaryString>& bases) {
  const hsa::TernaryString& base = bases[rng.pick_index(bases.size())];
  const int width = base.width();
  hsa::TernaryString m(width);
  const bool leading_wildcard = rng.next_bool(0.25);
  const int prefix = static_cast<int>(rng.next_below(17));
  for (int k = 0; k < width; ++k) {
    if (k == 0 && leading_wildcard) continue;
    if (k < prefix || (k % 29 == 5 && rng.next_bool(0.3))) {
      m.set(k, base.get(k));
    }
  }
  return m;
}

TEST(FlowTable, IndexedInputSpaceMatchesScannedCubeForCube) {
  util::Rng rng(17);
  // Widths below, at and above the prefix index's 12 bits, and past one
  // 64-bit word.
  for (const int width : {8, 12, 16, 32, 70, 128}) {
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<hsa::TernaryString> bases;
      for (int b = 0; b < 3; ++b) {
        hsa::TernaryString base(width);
        for (int k = 0; k < width; ++k) {
          base.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
        }
        bases.push_back(base);
      }
      FlowTable t;
      const int n = 10 + static_cast<int>(rng.next_below(60));
      for (int i = 0; i < n; ++i) {
        FlowEntry e;
        e.id = i;
        // Few priority levels: equal-priority ties are common.
        e.priority = static_cast<int>(rng.next_below(5));
        e.match = random_match(rng, bases);
        t.insert(e);
      }
      for (int i = 0; i < n; ++i) {
        if (rng.next_bool(0.2)) t.erase(i);
      }
      const PrefixIndex index = t.shadow_index();
      for (std::size_t pos = 0; pos < t.size(); ++pos) {
        const hsa::HeaderSpace indexed = t.input_space_at(pos, index);
        const hsa::HeaderSpace scanned = t.input_space(t.entries()[pos].id);
        EXPECT_EQ(indexed.width(), scanned.width());
        ASSERT_EQ(indexed.cubes(), scanned.cubes())
            << "width " << width << " trial " << trial << " position " << pos;
      }
    }
  }
}

TEST(RuleSetTest, ForEachInputSpaceVisitsLiveEntriesInIdOrder) {
  topo::Graph g(2);
  g.add_edge(0, 1);
  RuleSet rules(g, 16);
  util::Rng rng(29);
  std::vector<hsa::TernaryString> bases;
  for (int b = 0; b < 2; ++b) {
    hsa::TernaryString base(16);
    for (int k = 0; k < 16; ++k) {
      base.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
    }
    bases.push_back(base);
  }
  for (int i = 0; i < 80; ++i) {
    FlowEntry e;
    e.switch_id = static_cast<SwitchId>(rng.next_below(2));
    e.table_id = static_cast<TableId>(rng.next_below(2));
    e.priority = static_cast<int>(rng.next_below(4));
    e.match = random_match(rng, bases);
    e.action = Action::drop();
    rules.add_entry(std::move(e));
  }
  for (EntryId id = 0; id < 80; id += 7) rules.remove_entry(id);
  std::vector<EntryId> visited;
  rules.for_each_input_space([&](EntryId id, hsa::HeaderSpace in) {
    visited.push_back(id);
    const hsa::HeaderSpace scanned = rules.input_space(id);
    EXPECT_EQ(in.width(), scanned.width());
    EXPECT_EQ(in.cubes(), scanned.cubes()) << "entry " << id;
  });
  std::vector<EntryId> live;
  for (EntryId id = 0; id < 80; ++id) {
    if (!rules.is_removed(id)) live.push_back(id);
  }
  EXPECT_EQ(visited, live);
}

TEST(PortMapTest, RoundTripPorts) {
  topo::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const PortMap pm(g);
  const auto p01 = pm.port_to(0, 1);
  ASSERT_TRUE(p01.has_value());
  EXPECT_EQ(pm.peer_of(0, *p01), 1);
  EXPECT_FALSE(pm.port_to(0, 2).has_value());
  // Host port is one past the neighbor ports.
  EXPECT_FALSE(pm.peer_of(1, pm.host_port(1)).has_value());
}

class SynthesizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesizerProperty, WellFormedRuleset) {
  topo::GeneratorConfig tc;
  tc.node_count = 14;
  tc.link_count = 24;
  tc.seed = GetParam();
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  SynthesizerConfig sc;
  sc.target_entry_count = 1500;
  sc.seed = GetParam() * 3 + 1;
  const RuleSet rs = synthesize_ruleset(g, sc);

  // Entry count lands near the target (within one path length).
  EXPECT_GE(rs.entry_count(), 1500u);
  EXPECT_LE(rs.entry_count(), 1500u + 32u);

  // Every output action refers to a real port (neighbor or host).
  for (const auto& e : rs.entries()) {
    ASSERT_EQ(e.action.type, ActionType::kOutput) << e.to_string();
    const auto peer = rs.ports().peer_of(e.switch_id, e.action.out_port);
    const bool is_host_port =
        e.action.out_port == rs.ports().host_port(e.switch_id);
    EXPECT_TRUE(peer.has_value() || is_host_port) << e.to_string();
  }

  // Linter self-check: synthesized rulesets carry no error-severity defects.
  // Warnings (fully shadowed entries from prefix aggregation + route
  // diversity) are expected; every warning must be a shadowed-entry finding,
  // nothing else.
  const analysis::LintReport report = analysis::Linter().run(rs);
  EXPECT_EQ(report.count(analysis::Severity::kError), 0u)
      << report.to_string();
  EXPECT_EQ(report.count(analysis::Severity::kWarning),
            report.count(analysis::CheckId::kShadowedEntry))
      << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizerProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Synthesizer, AggregatesGiveEverySwitchADefaultRoute) {
  topo::GeneratorConfig tc;
  tc.node_count = 8;
  tc.link_count = 12;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  SynthesizerConfig sc;
  sc.target_entry_count = 200;
  sc.aggregates = true;
  const RuleSet rs = synthesize_ruleset(g, sc);
  // For each destination d and switch u, some entry at u matches d-traffic.
  for (SwitchId d = 0; d < 8; ++d) {
    for (SwitchId u = 0; u < 8; ++u) {
      hsa::TernaryString probe = hsa::TernaryString::wildcard(32);
      for (int k = 0; k < 8; ++k) {
        probe.set(k, (d >> (7 - k)) & 1 ? hsa::Trit::kOne : hsa::Trit::kZero);
      }
      for (int k = 8; k < 32; ++k) probe.set(k, hsa::Trit::kZero);
      EXPECT_NE(rs.table(u, 0).lookup(probe), nullptr)
          << "switch " << u << " dst " << d;
    }
  }
}

TEST(Campus, MatchesPaperShape) {
  CampusConfig cc;  // defaults = paper values
  const RuleSet rs = make_campus_ruleset(cc);
  EXPECT_EQ(rs.table(0, 0).size(), 550u);
  EXPECT_EQ(rs.table(1, 0).size(), 579u);
  EXPECT_EQ(rs.max_overlap_chain(), 65);
  // Every entry is reachable by some packet (non-empty input space).
  for (const auto& e : rs.entries()) {
    EXPECT_FALSE(rs.input_space(e.id).is_empty()) << e.to_string();
  }

  // Linter self-check: the campus generator builds overlap chains, never
  // full shadows, so the ruleset lints completely clean — zero diagnostics
  // at any severity.
  const analysis::LintReport report = analysis::Linter().run(rs);
  EXPECT_EQ(report.count(analysis::Severity::kError), 0u)
      << report.to_string();
  EXPECT_EQ(report.size(), 0u) << report.to_string();
}

TEST(Campus, ConfigurableSizes) {
  CampusConfig cc;
  cc.entries_table0 = 40;
  cc.entries_table1 = 55;
  cc.max_overlap_chain = 12;
  cc.header_width = 32;
  const RuleSet rs = make_campus_ruleset(cc);
  EXPECT_EQ(rs.table(0, 0).size(), 40u);
  EXPECT_EQ(rs.table(1, 0).size(), 55u);
  EXPECT_EQ(rs.max_overlap_chain(), 12);
}

}  // namespace
}  // namespace sdnprobe::flow

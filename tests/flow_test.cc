// Tests for flow tables, rulesets, the K-path synthesizer, and the campus
// ruleset generator. The generator tests double as linter self-checks: the
// rulesets they produce must stay free of error-severity diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/linter.h"
#include "flow/campus.h"
#include "flow/prefix_index.h"
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

// The linear-scan flow table the indexed FlowTable must agree with: a
// vector in table order, where every operation is a scan.
struct LinearTable {
  void insert(const FlowEntry& e) {
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&e](const FlowEntry& x) { return x.priority < e.priority; });
    entries.insert(it, e);
  }

  bool erase(EntryId id) {
    const auto it = find(id);
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }

  bool update_actions(EntryId id, const hsa::TernaryString& set_field,
                      const Action& action) {
    const auto it = find(id);
    if (it == entries.end()) return false;
    it->set_field = set_field;
    it->action = action;
    return true;
  }

  const FlowEntry* lookup(const hsa::TernaryString& h) const {
    for (const auto& e : entries) {
      if (e.match.covers(h)) return &e;
    }
    return nullptr;
  }

  // The match minus every earlier overlapping match, in table order.
  hsa::HeaderSpace input_space(EntryId id) {
    const auto target = find(id);
    if (target == entries.end()) return hsa::HeaderSpace();
    hsa::HeaderSpace in(target->match);
    for (auto it = entries.begin(); it != target; ++it) {
      if (!it->match.intersects(target->match)) continue;
      in = in.subtract(it->match);
      if (in.is_empty()) break;
    }
    return in;
  }

  std::vector<FlowEntry>::iterator find(EntryId id) {
    return std::find_if(entries.begin(), entries.end(),
                        [id](const FlowEntry& x) { return x.id == id; });
  }

  std::vector<FlowEntry> entries;
};

std::vector<hsa::TernaryString> random_bases(util::Rng& rng, int width,
                                             int count) {
  std::vector<hsa::TernaryString> bases;
  for (int b = 0; b < count; ++b) {
    hsa::TernaryString base(width);
    for (int k = 0; k < width; ++k) {
      base.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
    }
    bases.push_back(base);
  }
  return bases;
}

TEST(FlowTable, IndexedInputSpaceMatchesScannedCubeForCube) {
  util::Rng rng(17);
  // Widths below, at and above the prefix index's 12 bits, and past one
  // 64-bit word.
  for (const int width : {8, 12, 16, 32, 70, 128}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<hsa::TernaryString> bases =
          random_bases(rng, width, 3);
      FlowTable t;
      LinearTable ref;
      const int n = 10 + static_cast<int>(rng.next_below(60));
      for (int i = 0; i < n; ++i) {
        FlowEntry e;
        e.id = i;
        // Few priority levels: equal-priority ties are common.
        e.priority = static_cast<int>(rng.next_below(5));
        e.match = random_match(rng, bases);
        t.insert(e);
        ref.insert(e);
      }
      for (int i = 0; i < n; ++i) {
        if (rng.next_bool(0.2)) {
          t.erase(i);
          ref.erase(i);
        }
      }
      for (const FlowEntry& e : ref.entries) {
        const hsa::HeaderSpace indexed = t.input_space(e.id);
        const hsa::HeaderSpace scanned = ref.input_space(e.id);
        EXPECT_EQ(indexed.width(), scanned.width());
        ASSERT_EQ(indexed.cubes(), scanned.cubes())
            << "width " << width << " trial " << trial << " entry " << e.id;
      }
    }
  }
}

// One seeded FlowMod stream applied to the indexed table and to the
// linear-scan reference; after every step the two must agree on entry
// order, on lookup, and on every input space cube for cube.
TEST(FlowTable, IndexedTableMatchesLinearScanUnderFlowModStream) {
  // The §VI test-entry priority, and the extremes of the rank encoding.
  const std::vector<int> priorities = {std::numeric_limits<int>::min(),
                                       -1,
                                       0,
                                       1,
                                       2,
                                       std::numeric_limits<int>::max() / 2,
                                       std::numeric_limits<int>::max()};
  util::Rng rng(2024);
  // Widths below 12 shrink the bucket key; 64/65 straddle the word edge.
  for (const int width : {4, 8, 12, 13, 64, 65, 128}) {
    const std::vector<hsa::TernaryString> bases = random_bases(rng, width, 3);
    FlowTable t;
    LinearTable ref;
    std::vector<EntryId> live;
    EntryId next_id = 0;
    int hits = 0;
    int misses = 0;
    for (int step = 0; step < 100; ++step) {
      const double op = rng.next_double();
      // Tables of 4 to 24 entries keep the every-step checks cheap.
      if ((op < 0.5 && live.size() < 24) || live.size() < 4) {
        FlowEntry e;
        // Ids mostly ascend, as the controller allocates them; some land
        // below existing ones.
        e.id = rng.next_bool(0.8) ? next_id : next_id + 1000;
        next_id += rng.next_bool(0.8) ? 1 : 3;
        if (std::find(live.begin(), live.end(), e.id) != live.end()) continue;
        if (rng.next_bool(0.2)) {
          // A §VI test entry: a concrete header at the top priority, often
          // one some policy entry also matches.
          e.priority = std::numeric_limits<int>::max() / 2;
          e.match = (live.empty() || rng.next_bool(0.3)
                         ? bases[rng.pick_index(bases.size())]
                         : ref.find(live[rng.pick_index(live.size())])->match)
                        .sample(rng);
          e.action = Action::to_controller();
        } else {
          // Mostly the few policy levels, so equal-priority ties are common.
          e.priority = rng.next_bool(0.8)
                           ? static_cast<int>(rng.next_below(3))
                           : priorities[rng.pick_index(priorities.size())];
          e.match = random_match(rng, bases);
          e.action = Action::output(static_cast<PortId>(rng.next_below(4)));
        }
        e.set_field = hsa::TernaryString::wildcard(width);
        t.insert(e);
        ref.insert(e);
        live.push_back(e.id);
      } else if (op < 0.75) {
        // Erase a live id, or one that is gone or never existed.
        const EntryId id = rng.next_bool(0.8)
                               ? live[rng.pick_index(live.size())]
                               : static_cast<EntryId>(rng.next_below(
                                     static_cast<std::uint64_t>(next_id) + 5));
        ASSERT_EQ(t.erase(id), ref.erase(id)) << "step " << step;
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
      } else {
        const EntryId id = rng.next_bool(0.8)
                               ? live[rng.pick_index(live.size())]
                               : static_cast<EntryId>(rng.next_below(
                                     static_cast<std::uint64_t>(next_id) + 5));
        hsa::TernaryString set = hsa::TernaryString::wildcard(width);
        set.set(static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(width))),
                hsa::Trit::kOne);
        const Action action =
            rng.next_bool(0.5) ? Action::goto_table(1) : Action::drop();
        ASSERT_EQ(t.update_actions(id, set, action),
                  ref.update_actions(id, set, action))
            << "step " << step;
      }
      // A copied table carries its index along (the data plane copies
      // every policy table).
      if (step == 50) t = FlowTable(t);

      ASSERT_EQ(t.size(), ref.entries.size()) << "step " << step;
      for (std::size_t pos = 0; pos < t.size(); ++pos) {
        const FlowEntry& a = t.entries()[pos];
        const FlowEntry& b = ref.entries[pos];
        ASSERT_EQ(a.id, b.id) << "width " << width << " step " << step;
        ASSERT_EQ(a.priority, b.priority);
        ASSERT_EQ(a.match, b.match);
        ASSERT_EQ(a.set_field, b.set_field);
        ASSERT_TRUE(a.action == b.action);
      }
      for (int q = 0; q < 12; ++q) {
        // Hits: a header drawn from a live match; misses: a header near a
        // base, or anywhere. The last two keep a wildcard bit.
        hsa::TernaryString h =
            (q % 2 == 0 && !live.empty()
                 ? ref.find(live[rng.pick_index(live.size())])->match
             : q % 4 == 1 ? random_match(rng, bases)
                          : hsa::TernaryString::wildcard(width))
                .sample(rng);
        if (q >= 10) {
          h.set(static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(width))),
                hsa::Trit::kWild);
        }
        const FlowEntry* got = t.lookup(h);
        const FlowEntry* want = ref.lookup(h);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "width " << width << " step " << step << " header "
            << h.to_string();
        if (want != nullptr) {
          ASSERT_EQ(got->id, want->id)
              << "width " << width << " step " << step << " header "
              << h.to_string();
          ++hits;
        } else {
          ++misses;
        }
      }
      for (const FlowEntry& e : ref.entries) {
        ASSERT_EQ(t.input_space(e.id).cubes(), ref.input_space(e.id).cubes())
            << "width " << width << " step " << step << " entry " << e.id;
      }
    }
    // A catch-all match is often live, so misses are the rarer outcome.
    EXPECT_GT(hits, 600) << "width " << width;
    EXPECT_GT(misses, 15) << "width " << width;
  }
}

TEST(FlowTable, BatchedFlowModsMatchOneByOne) {
  // A table fed insert and erase batches against a twin fed the same
  // operations one at a time, and the linear-scan reference.
  const std::vector<int> priorities = {std::numeric_limits<int>::min(),
                                       -1,
                                       0,
                                       1,
                                       2,
                                       std::numeric_limits<int>::max() / 2,
                                       std::numeric_limits<int>::max()};
  util::Rng rng(2025);
  for (const int width : {4, 8, 12, 13, 64, 65, 128}) {
    const std::vector<hsa::TernaryString> bases = random_bases(rng, width, 3);
    const int key_bits = std::min(PrefixIndex::kIndexBits, width);
    FlowTable batched;
    FlowTable twin;
    LinearTable ref;
    std::vector<EntryId> live;
    EntryId next_id = 0;
    int emptied_buckets = 0;
    int emptied_tables = 0;
    for (int step = 0; step < 60; ++step) {
      const double op = rng.next_double();
      if ((op < 0.55 && live.size() < 40) || live.size() < 4) {
        // A batch of 1-12 fresh entries: ids mostly ascend; priorities
        // mostly repeat one level, so the batch ties with itself and with
        // the table.
        std::vector<FlowEntry> batch(1 + rng.next_below(12));
        const int level = static_cast<int>(rng.next_below(3));
        for (FlowEntry& e : batch) {
          e.id = rng.next_bool(0.8) ? next_id : next_id + 5000;
          next_id += rng.next_bool(0.8) ? 1 : 3;
          if (rng.next_bool(0.25)) {
            // A §VI test entry: concrete, at the top priority, often a
            // header a live entry also matches.
            e.priority = std::numeric_limits<int>::max() / 2;
            e.match = (live.empty() || rng.next_bool(0.3)
                           ? bases[rng.pick_index(bases.size())]
                           : ref.find(live[rng.pick_index(live.size())])->match)
                          .sample(rng);
            e.action = Action::to_controller();
          } else {
            e.priority = rng.next_bool(0.7)
                             ? level
                             : priorities[rng.pick_index(priorities.size())];
            e.match = random_match(rng, bases);
            e.action = Action::output(static_cast<PortId>(rng.next_below(4)));
          }
          e.set_field = hsa::TernaryString::wildcard(width);
        }
        // Ids stay unique across the table and the batch.
        std::vector<FlowEntry> fresh;
        for (const FlowEntry& e : batch) {
          const bool taken =
              std::find(live.begin(), live.end(), e.id) != live.end() ||
              std::any_of(fresh.begin(), fresh.end(),
                          [&e](const FlowEntry& f) { return f.id == e.id; });
          if (!taken) fresh.push_back(e);
        }
        batched.insert(fresh);
        for (const FlowEntry& e : fresh) {
          twin.insert(e);
          ref.insert(e);
          live.push_back(e.id);
        }
      } else {
        std::vector<EntryId> ids;
        const double kind = rng.next_double();
        if (kind < 0.1) {
          // Everything, in shuffled order: the table empties.
          ids = live;
          ++emptied_tables;
        } else if (kind < 0.35) {
          // Every entry of one bucket: the bucket empties.
          const std::uint32_t all_exact = (std::uint32_t{1} << key_bits) - 1;
          auto bucket_of = [&](EntryId id) -> std::optional<std::uint32_t> {
            const hsa::TernaryString& m = ref.find(id)->match;
            const PrefixKey key = prefix_key(m, key_bits);
            if (m.is_concrete() || key.exact != all_exact) return std::nullopt;
            return key.value;
          };
          std::vector<std::uint32_t> keys;
          for (const EntryId id : live) {
            if (const auto key = bucket_of(id)) keys.push_back(*key);
          }
          if (!keys.empty()) {
            const std::uint32_t key = keys[rng.pick_index(keys.size())];
            for (const EntryId id : live) {
              if (bucket_of(id) == key) ids.push_back(id);
            }
            ++emptied_buckets;
          }
        } else {
          // A few live ids, gone ones, repeats and ids never used.
          for (std::uint64_t n = 1 + rng.next_below(8); n > 0; --n) {
            ids.push_back(rng.next_bool(0.7)
                              ? live[rng.pick_index(live.size())]
                              : static_cast<EntryId>(rng.next_below(
                                    static_cast<std::uint64_t>(next_id) +
                                    6000)));
          }
        }
        for (std::size_t i = ids.size(); i > 1; --i) {
          std::swap(ids[i - 1], ids[rng.next_below(i)]);
        }
        std::size_t removed = 0;
        for (const EntryId id : ids) {
          const bool twin_hit = twin.erase(id);
          ASSERT_EQ(twin_hit, ref.erase(id)) << "step " << step;
          removed += twin_hit ? 1 : 0;
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
        ASSERT_EQ(batched.erase(ids), removed) << "step " << step;
      }

      ASSERT_EQ(batched.size(), twin.size()) << "step " << step;
      ASSERT_EQ(batched.size(), ref.entries.size()) << "step " << step;
      for (std::size_t pos = 0; pos < batched.size(); ++pos) {
        const FlowEntry& a = batched.entries()[pos];
        ASSERT_EQ(a.id, twin.entries()[pos].id)
            << "width " << width << " step " << step;
        ASSERT_EQ(a.id, ref.entries[pos].id);
        ASSERT_EQ(a.priority, ref.entries[pos].priority);
        ASSERT_EQ(a.match, ref.entries[pos].match);
        ASSERT_TRUE(a.action == ref.entries[pos].action);
      }
      for (int q = 0; q < 16; ++q) {
        hsa::TernaryString h =
            (q % 2 == 0 && !live.empty()
                 ? ref.find(live[rng.pick_index(live.size())])->match
             : q % 4 == 1 ? random_match(rng, bases)
                          : hsa::TernaryString::wildcard(width))
                .sample(rng);
        if (q >= 14) {
          h.set(static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(width))),
                hsa::Trit::kWild);
        }
        const FlowEntry* got = batched.lookup(h);
        const FlowEntry* one = twin.lookup(h);
        const FlowEntry* want = ref.lookup(h);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "width " << width << " step " << step << " " << h.to_string();
        ASSERT_EQ(one == nullptr, want == nullptr);
        if (want != nullptr) {
          ASSERT_EQ(got->id, want->id)
              << "width " << width << " step " << step << " " << h.to_string();
          ASSERT_EQ(one->id, want->id);
        }
      }
      for (const FlowEntry& e : ref.entries) {
        const auto want = ref.input_space(e.id).cubes();
        ASSERT_EQ(batched.input_space(e.id).cubes(), want)
            << "width " << width << " step " << step << " entry " << e.id;
        ASSERT_EQ(twin.input_space(e.id).cubes(), want);
      }
    }
    EXPECT_GT(emptied_tables, 0) << "width " << width;
    // Up to 12 bits, a match exact on every indexed bit is concrete: it
    // goes to the exact tier, and no bucket exists.
    if (width > PrefixIndex::kIndexBits) {
      EXPECT_GT(emptied_buckets, 0) << "width " << width;
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

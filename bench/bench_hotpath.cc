// Hot-path microbench for the header-space algebra and the flow-table index
// (DESIGN.md §13): three sections, each timed against a straightforward
// baseline.
//
//   cube-ops/sec       HeaderSpace::subtract chains vs the plain
//                      vector<TernaryString> algorithms (embedded below:
//                      add_cube dedup, a two-direction subsumption pass,
//                      cube_difference splitting) — same inputs, outputs
//                      checked identical cube-for-cube.
//   rules-ingested/sec FlowTable::input_space (the rule-graph construction
//                      hot loop) over a synthesized ruleset vs the same
//                      reference fold, cube lists checked identical entry
//                      by entry.
//   lookups/sec,       FlowTable::lookup on random concrete headers, and the
//   flowmods/sec       six FlowMods of a §VI test point (install and
//                      teardown), vs a linear-scan table (embedded below) —
//                      same operations, results checked identical.
//   ms/round           one probe round's test points (one per cover probe's
//                      terminal) installed and torn down through the
//                      controller, batched vs one at a time, both checked
//                      against linear-scan tables first.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "hsa/header_space.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace sdnprobe;

namespace {

// --- Scalar reference: the plain vector algorithms. ---

void ref_add_cube(std::vector<hsa::TernaryString>& cubes,
                  const hsa::TernaryString& c) {
  for (const auto& existing : cubes) {
    if (existing.covers(c)) return;
  }
  cubes.push_back(c);
}

std::vector<hsa::TernaryString> ref_simplify(
    const std::vector<hsa::TernaryString>& cubes) {
  std::vector<hsa::TernaryString> kept;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    bool subsumed = false;
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (i == j) continue;
      if (cubes[j].covers(cubes[i]) &&
          !(cubes[i].covers(cubes[j]) && j > i)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(cubes[i]);
  }
  return kept;
}

std::vector<hsa::TernaryString> ref_subtract(
    const std::vector<hsa::TernaryString>& from,
    const hsa::TernaryString& cube) {
  std::vector<hsa::TernaryString> r;
  for (const auto& a : from) {
    for (const auto& piece : hsa::cube_difference(a, cube)) {
      ref_add_cube(r, piece);
    }
  }
  return ref_simplify(r);
}

// --- Linear-scan reference: a flow table where every operation scans. ---

struct LinearTable {
  void insert(const flow::FlowEntry& e) {
    entries.insert(std::find_if(entries.begin(), entries.end(),
                                [&e](const flow::FlowEntry& x) {
                                  return x.priority < e.priority;
                                }),
                   e);
  }
  std::vector<flow::FlowEntry>::iterator find(flow::EntryId id) {
    return std::find_if(entries.begin(), entries.end(),
                        [id](const flow::FlowEntry& x) { return x.id == id; });
  }
  bool erase(flow::EntryId id) {
    const auto it = find(id);
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }
  bool update_actions(flow::EntryId id, const hsa::TernaryString& set_field,
                      const flow::Action& action) {
    const auto it = find(id);
    if (it == entries.end()) return false;
    it->set_field = set_field;
    it->action = action;
    return true;
  }
  const flow::FlowEntry* lookup(const hsa::TernaryString& h) const {
    for (const auto& e : entries) {
      if (e.match.covers(h)) return &e;
    }
    return nullptr;
  }
  std::vector<flow::FlowEntry> entries;
};

hsa::TernaryString random_prefix_cube(util::Rng& rng, int width,
                                      int max_prefix) {
  hsa::TernaryString t = hsa::TernaryString::wildcard(width);
  const int plen = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(max_prefix) + 1));
  for (int k = 0; k < plen; ++k) {
    t.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header(
      "Hot-path throughput: header-space algebra + flow tables",
      "SDNProbe ICDCS'18 SectionVIII (precomputation & probing overhead)");
  bench::BenchReport report(
      "hotpath",
      "SDNProbe ICDCS'18 SectionVIII (precomputation & probing overhead)",
      full);

  // ---- 1. cube-ops/sec: subtract chains, HeaderSpace vs reference. ----
  // One "cube op" = one (cube − cube) difference step in the chain; both
  // sides execute exactly the same ops on the same inputs, and the final
  // cube populations are checked identical. Two regimes:
  //   prefix — LPM-style shadows over a prefix target; working set stays at
  //            a handful of cubes (the typical input_space chain).
  //   dense  — wildcard target minus scattered-bit cubes, the HSA cascade
  //            that fans out to hundreds of working cubes (linting,
  //            legal-path propagation, the §V-A worst case). Here the
  //            subsumption scans dominate.
  struct CubeOpsResult {
    std::uint64_t ops = 0;
    std::size_t cubes = 0;
    double seconds = 0.0;
  };
  auto run_cube_ops =
      [](const std::vector<hsa::TernaryString>& targets,
         const std::vector<std::vector<hsa::TernaryString>>& shadows,
         bool reference) {
        CubeOpsResult r;
        util::WallTimer timer;
        for (std::size_t i = 0; i < targets.size(); ++i) {
          if (reference) {
            std::vector<hsa::TernaryString> cur{targets[i]};
            for (const auto& s : shadows[i]) {
              if (!s.intersects(targets[i])) continue;
              r.ops += cur.size();
              cur = ref_subtract(cur, s);
              if (cur.empty()) break;
            }
            r.cubes += cur.size();
          } else {
            hsa::HeaderSpace cur(targets[i]);
            for (const auto& s : shadows[i]) {
              if (!s.intersects(targets[i])) continue;
              r.ops += cur.cube_count();
              cur = cur.subtract(s);
              if (cur.is_empty()) break;
            }
            r.cubes += cur.cube_count();
          }
        }
        r.seconds = timer.elapsed_seconds();
        return r;
      };

  {
    struct Regime {
      const char* name;
      int width;
      int chains;
      int chain_len;
      bool dense;
    };
    // Dense chains grow combinatorially (a wildcard minus 10 scattered
    // 3-bit cubes at w=32 ends near ~2700 working cubes), so a couple of
    // chains is already seconds of scalar O(n^2) subsumption work.
    const Regime regimes[] = {
        {"prefix", 32, full ? 4000 : 1000, 24, false},
        {"dense", 32, full ? 8 : 2, 10, true},
    };
    for (const Regime& rg : regimes) {
      util::Rng rng(42);
      std::vector<hsa::TernaryString> targets;
      std::vector<std::vector<hsa::TernaryString>> shadows;
      for (int i = 0; i < rg.chains; ++i) {
        targets.push_back(rg.dense
                              ? hsa::TernaryString::wildcard(rg.width)
                              : random_prefix_cube(rng, rg.width, 8));
        auto& sh = shadows.emplace_back();
        for (int k = 0; k < rg.chain_len; ++k) {
          if (rg.dense) {
            // Three scattered exact bits: each subtraction splits every
            // working cube into up to three pieces.
            hsa::TernaryString t = hsa::TernaryString::wildcard(rg.width);
            for (int f = 0; f < 3; ++f) {
              t.set(static_cast<int>(
                        rng.next_below(static_cast<std::uint64_t>(rg.width))),
                    rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
            }
            sh.push_back(t);
          } else {
            sh.push_back(random_prefix_cube(rng, rg.width, 12));
          }
        }
      }

      const CubeOpsResult scalar =
          run_cube_ops(targets, shadows, /*reference=*/true);
      const CubeOpsResult hs = run_cube_ops(targets, shadows,
                                            /*reference=*/false);
      if (scalar.cubes != hs.cubes || scalar.ops != hs.ops) {
        std::printf(
            "DIVERGENCE (%s): scalar %zu cubes / %llu ops, HeaderSpace %zu / "
            "%llu\n",
            rg.name, scalar.cubes,
            static_cast<unsigned long long>(scalar.ops), hs.cubes,
            static_cast<unsigned long long>(hs.ops));
        return 1;
      }
      const double scalar_rate =
          static_cast<double>(scalar.ops) / scalar.seconds;
      const double hs_rate = static_cast<double>(hs.ops) / hs.seconds;
      const double speedup = hs_rate / scalar_rate;
      std::printf("cube ops (%-6s): scalar %10.0f ops/s | HeaderSpace %10.0f "
                  "ops/s | %5.1fx\n",
                  rg.name, scalar_rate, hs_rate, speedup);
      auto& row = report.add_row();
      row["section"] = "cube_ops";
      row["regime"] = rg.name;
      row["ops"] = hs.ops;
      row["scalar_ops_per_sec"] = scalar_rate;
      row["header_space_ops_per_sec"] = hs_rate;
      row["speedup"] = speedup;
      if (rg.dense) {
        report.set_summary("cube_ops_per_sec", hs_rate);
        report.set_summary("cube_ops_speedup", speedup);
      }
    }
  }

  // ---- 2. rules-ingested/sec: input_space over a synthesized ruleset. ----
  {
    bench::WorkloadSpec spec;
    spec.switches = full ? 30 : 20;
    spec.links = full ? 54 : 36;
    spec.rule_target = full ? 15000 : 5000;
    const bench::Workload w = bench::make_workload(spec);
    const auto& entries = w.rules.entries();

    // Each side keeps its per-entry cube lists; they are compared cube for
    // cube after both timers stop.
    std::vector<std::vector<hsa::TernaryString>> ref_lists;
    util::WallTimer ref_timer;
    for (const auto& e : entries) {
      if (w.rules.is_removed(e.id)) continue;
      const auto& table = w.rules.table(e.switch_id, e.table_id);
      std::vector<hsa::TernaryString> cur{e.match};
      for (const auto& q : table.entries()) {
        if (q.id == e.id) break;
        if (!q.match.intersects(e.match)) continue;
        cur = ref_subtract(cur, q.match);
        if (cur.empty()) break;
      }
      ref_lists.push_back(std::move(cur));
    }
    const double ref_s = ref_timer.elapsed_seconds();

    std::vector<hsa::HeaderSpace> spaces;
    util::WallTimer table_timer;
    for (const auto& e : entries) {
      if (w.rules.is_removed(e.id)) continue;
      spaces.push_back(
          w.rules.table(e.switch_id, e.table_id).input_space(e.id));
    }
    const double table_s = table_timer.elapsed_seconds();

    for (std::size_t i = 0; i < spaces.size(); ++i) {
      if (spaces[i].cubes() != ref_lists[i]) {
        std::printf("DIVERGENCE: input space %zu differs from the reference "
                    "fold (%zu vs %zu cubes)\n",
                    i, spaces[i].cube_count(), ref_lists[i].size());
        return 1;
      }
    }
    const double n = static_cast<double>(entries.size());
    const double ref_rate = n / ref_s;
    const double table_rate = n / table_s;
    const double speedup = table_rate / ref_rate;
    std::printf("rule ingest   : scalar %10.0f rules/s | input_space %10.0f "
                "rules/s | %5.1fx   (%zu rules)\n",
                ref_rate, table_rate, speedup, entries.size());
    auto& row = report.add_row();
    row["section"] = "rule_ingest";
    row["rules"] = std::uint64_t{entries.size()};
    row["scalar_rules_per_sec"] = ref_rate;
    row["input_space_rules_per_sec"] = table_rate;
    row["speedup"] = speedup;
    report.set_summary("rules_ingested_per_sec", table_rate);
    report.set_summary("rules_ingested_speedup", speedup);
  }

  // ---- 3. flow table: lookups and §VI test-point FlowMods. ----
  // Every switch's policy table, as the data plane holds it, against the
  // same entries in a linear-scan table. Lookups: half the headers are
  // drawn from a random entry's match (hits), half anywhere (mostly
  // misses). FlowMods: the controller's test-point sequence (copy insert
  // into the test table, redirect by update_actions, concrete test-entry
  // insert; then the three undone), for a batch of terminals per round.
  {
    bench::WorkloadSpec spec;
    spec.switches = 30;
    spec.links = 54;
    spec.rule_target = full ? 82740 : 30000;
    const bench::Workload w = bench::make_workload(spec);
    const int n_sw = w.rules.switch_count();
    const int width = w.rules.header_width();
    std::vector<flow::FlowTable> tables;
    std::vector<LinearTable> refs;
    for (flow::SwitchId s = 0; s < n_sw; ++s) {
      tables.push_back(w.rules.table(s, 0));
      refs.push_back(LinearTable{w.rules.table(s, 0).entries()});
    }

    util::Rng rng(11);
    const int n_lookups = full ? 400000 : 100000;
    std::vector<std::pair<flow::SwitchId, hsa::TernaryString>> headers;
    headers.reserve(static_cast<std::size_t>(n_lookups));
    for (int i = 0; i < n_lookups; ++i) {
      const auto s = static_cast<flow::SwitchId>(
          rng.next_below(static_cast<std::uint64_t>(n_sw)));
      const auto& es = tables[static_cast<std::size_t>(s)].entries();
      const hsa::TernaryString& from =
          i % 2 == 0 ? es[rng.pick_index(es.size())].match
                     : hsa::TernaryString::wildcard(width);
      headers.emplace_back(s, from.sample(rng));
    }
    auto run_lookups = [&](auto& ts) {
      std::uint64_t digest = 0;
      for (const auto& [s, h] : headers) {
        const flow::FlowEntry* e = ts[static_cast<std::size_t>(s)].lookup(h);
        digest = digest * 1000003u +
                 static_cast<std::uint64_t>(e ? e->id + 1 : 0);
      }
      return digest;
    };
    util::WallTimer ref_lookup_timer;
    const std::uint64_t ref_digest = run_lookups(refs);
    const double ref_lookup_s = ref_lookup_timer.elapsed_seconds();
    util::WallTimer lookup_timer;
    const std::uint64_t digest = run_lookups(tables);
    const double lookup_s = lookup_timer.elapsed_seconds();
    if (digest != ref_digest) {
      std::printf("DIVERGENCE: flow-table lookups differ from the linear "
                  "scan\n");
      return 1;
    }

    // The same test points for both tables: per round, `per_round`
    // terminals spread over the switches, each with one concrete header
    // from its match.
    constexpr int kTestEntryPriority = std::numeric_limits<int>::max() / 2;
    constexpr flow::EntryId kTestIdBase = 1 << 24;
    const int rounds = full ? 8 : 4;
    const int per_round = 8000;
    struct TestPoint {
      flow::SwitchId sw;
      flow::EntryId terminal;
      hsa::TernaryString header;
    };
    std::vector<std::vector<TestPoint>> plan(static_cast<std::size_t>(rounds));
    for (auto& round : plan) {
      std::vector<flow::EntryId> used;
      while (static_cast<int>(round.size()) < per_round) {
        const auto& e = w.rules.entry(static_cast<flow::EntryId>(
            rng.pick_index(w.rules.entry_count())));
        if (std::find(used.begin(), used.end(), e.id) != used.end()) continue;
        used.push_back(e.id);
        round.push_back({e.switch_id, e.id, e.match.sample(rng)});
      }
    }
    auto run_flowmods = [&](auto& policy, auto& test) {
      std::uint64_t digest = 0;
      std::uint64_t mods = 0;
      flow::EntryId next_id = kTestIdBase;
      for (const auto& round : plan) {
        std::vector<std::pair<flow::EntryId, flow::EntryId>> ids;
        for (const TestPoint& tp : round) {
          auto& pt = policy[static_cast<std::size_t>(tp.sw)];
          auto& tt = test[static_cast<std::size_t>(tp.sw)];
          const flow::FlowEntry& r = w.rules.entry(tp.terminal);
          flow::FlowEntry copy = r;
          copy.id = next_id++;
          copy.table_id = 1;
          copy.is_test_entry = true;
          tt.insert(copy);
          pt.update_actions(r.id, hsa::TernaryString::wildcard(width),
                            flow::Action::goto_table(1));
          flow::FlowEntry te;
          te.id = next_id++;
          te.switch_id = tp.sw;
          te.table_id = 1;
          te.priority = kTestEntryPriority;
          te.match = tp.header;
          te.set_field = hsa::TernaryString::wildcard(width);
          te.action = flow::Action::to_controller();
          te.is_test_entry = true;
          tt.insert(te);
          ids.emplace_back(copy.id, te.id);
          mods += 3;
        }
        // What the round's probes would meet at their terminals.
        for (const TestPoint& tp : round) {
          const flow::FlowEntry* e =
              test[static_cast<std::size_t>(tp.sw)].lookup(tp.header);
          digest = digest * 1000003u +
                   static_cast<std::uint64_t>(e ? e->id + 1 : 0);
        }
        for (std::size_t i = 0; i < round.size(); ++i) {
          const TestPoint& tp = round[i];
          auto& tt = test[static_cast<std::size_t>(tp.sw)];
          const flow::FlowEntry& r = w.rules.entry(tp.terminal);
          tt.erase(ids[i].second);
          policy[static_cast<std::size_t>(tp.sw)].update_actions(
              r.id, r.set_field, r.action);
          tt.erase(ids[i].first);
          mods += 3;
        }
      }
      return std::pair{digest, mods};
    };
    std::vector<LinearTable> ref_test(static_cast<std::size_t>(n_sw));
    util::WallTimer ref_mod_timer;
    const auto [ref_mod_digest, ref_mods] = run_flowmods(refs, ref_test);
    const double ref_mod_s = ref_mod_timer.elapsed_seconds();
    std::vector<flow::FlowTable> test(static_cast<std::size_t>(n_sw));
    util::WallTimer mod_timer;
    const auto [mod_digest, mods] = run_flowmods(tables, test);
    const double mod_s = mod_timer.elapsed_seconds();
    if (mod_digest != ref_mod_digest || mods != ref_mods) {
      std::printf("DIVERGENCE: test-point FlowMods differ from the linear "
                  "scan\n");
      return 1;
    }

    const double ref_lookup_rate = n_lookups / ref_lookup_s;
    const double lookup_rate = n_lookups / lookup_s;
    const double ref_mod_rate = static_cast<double>(mods) / ref_mod_s;
    const double mod_rate = static_cast<double>(mods) / mod_s;
    std::printf("table lookup  : linear %10.0f lkp/s  | indexed %10.0f "
                "lkp/s | %5.1fx   (%zu rules)\n",
                ref_lookup_rate, lookup_rate, lookup_rate / ref_lookup_rate,
                w.rules.entry_count());
    std::printf("test FlowMods : linear %10.0f mod/s  | indexed %10.0f "
                "mod/s | %5.1fx   (%llu FlowMods)\n",
                ref_mod_rate, mod_rate, mod_rate / ref_mod_rate,
                static_cast<unsigned long long>(mods));
    auto& row = report.add_row();
    row["section"] = "flow_table";
    row["rules"] = std::uint64_t{w.rules.entry_count()};
    row["lookups"] = std::uint64_t{static_cast<std::uint64_t>(n_lookups)};
    row["linear_lookups_per_sec"] = ref_lookup_rate;
    row["indexed_lookups_per_sec"] = lookup_rate;
    row["flowmods"] = mods;
    row["linear_flowmods_per_sec"] = ref_mod_rate;
    row["indexed_flowmods_per_sec"] = mod_rate;
    report.set_summary("table_lookups_per_sec", lookup_rate);
    report.set_summary("table_lookups_speedup", lookup_rate / ref_lookup_rate);
    report.set_summary("test_point_flowmods_per_sec", mod_rate);
    report.set_summary("test_point_flowmods_speedup", mod_rate / ref_mod_rate);

    // One probe round through the controller: a test point at every cover
    // probe's terminal, installed and torn down in one batched call each
    // (as core::ProbeRound does) and one test point at a time. Both are
    // first checked against the §VI FlowMods replayed one at a time on
    // linear-scan tables, after install and after teardown.
    const auto snap = core::AnalysisSnapshot::build(w.rules);
    const core::Cover cover = core::MlpcSolver().solve(snap);
    core::ProbeEngine engine(snap);
    util::Rng probe_rng(5);
    std::vector<controller::TestPointRequest> round;
    for (const core::Probe& p : engine.make_probes(cover, probe_rng)) {
      round.push_back({p.terminal_entry, p.expected_return});
    }

    // lin[switch][table], test tables included; ids as the controller
    // allocates them.
    std::vector<std::vector<LinearTable>> lin(static_cast<std::size_t>(n_sw));
    for (flow::SwitchId s = 0; s < n_sw; ++s) {
      for (flow::TableId t = 0; t <= w.rules.table_count(s); ++t) {
        lin[static_cast<std::size_t>(s)].push_back(LinearTable{
            t < w.rules.table_count(s) ? w.rules.table(s, t).entries()
                                       : std::vector<flow::FlowEntry>{}});
      }
    }
    std::map<flow::EntryId, std::pair<flow::EntryId, int>> copies;
    std::vector<controller::TestPointId> lin_tps;
    flow::EntryId next_id = std::max(
        static_cast<flow::EntryId>(w.rules.entry_count()), kTestIdBase);
    for (const controller::TestPointRequest& req : round) {
      const flow::FlowEntry& r = w.rules.entry(req.terminal);
      auto& tables = lin[static_cast<std::size_t>(r.switch_id)];
      const flow::TableId tt = w.rules.table_count(r.switch_id);
      auto& [copy_id, refs] = copies[r.id];
      if (refs++ == 0) {
        flow::FlowEntry copy = r;
        copy.id = copy_id = next_id++;
        copy.table_id = tt;
        copy.is_test_entry = true;
        tables[static_cast<std::size_t>(tt)].insert(copy);
        tables[static_cast<std::size_t>(r.table_id)].update_actions(
            r.id, hsa::TernaryString::wildcard(width),
            flow::Action::goto_table(tt));
      }
      flow::FlowEntry te;
      te.id = next_id++;
      te.switch_id = r.switch_id;
      te.table_id = tt;
      te.priority = kTestEntryPriority;
      te.match = req.probe_header;
      te.set_field = hsa::TernaryString::wildcard(width);
      te.action = flow::Action::to_controller();
      te.is_test_entry = true;
      tables[static_cast<std::size_t>(tt)].insert(te);
      lin_tps.push_back({r.id, te.id});
    }
    auto same_as_lin = [&](const dataplane::Network& net) {
      for (flow::SwitchId s = 0; s < n_sw; ++s) {
        const auto& tables = lin[static_cast<std::size_t>(s)];
        if (static_cast<std::size_t>(net.table_count(s)) != tables.size()) {
          return false;
        }
        for (std::size_t t = 0; t < tables.size(); ++t) {
          const auto& got =
              net.runtime_table(s, static_cast<flow::TableId>(t)).entries();
          const auto& want = tables[t].entries;
          if (!std::equal(got.begin(), got.end(), want.begin(), want.end(),
                          [](const flow::FlowEntry& a,
                             const flow::FlowEntry& b) {
                            return a.id == b.id && a.priority == b.priority &&
                                   a.match == b.match &&
                                   a.set_field == b.set_field &&
                                   a.action == b.action;
                          })) {
            return false;
          }
        }
      }
      return true;
    };

    sim::EventLoop loop;
    dataplane::Network batched_net(w.rules, loop);
    dataplane::Network single_net(w.rules, loop);
    controller::Controller batched(w.rules, batched_net);
    controller::Controller single(w.rules, single_net);
    auto install_single = [&] {
      std::vector<controller::TestPointId> tps;
      for (const controller::TestPointRequest& req : round) {
        tps.push_back(single.install_test_point(req.terminal,
                                                req.probe_header));
      }
      return tps;
    };
    auto remove_single = [&](const std::vector<controller::TestPointId>& tps) {
      for (const controller::TestPointId& tp : tps) {
        single.remove_test_point(tp);
      }
    };
    {
      const auto batched_tps = batched.install_test_points(round);
      const auto single_tps = install_single();
      const bool installed_ok =
          same_as_lin(batched_net) && same_as_lin(single_net);
      for (const controller::TestPointId& tp : lin_tps) {
        const flow::FlowEntry& r = w.rules.entry(tp.terminal);
        auto& tables = lin[static_cast<std::size_t>(r.switch_id)];
        const flow::TableId tt = w.rules.table_count(r.switch_id);
        tables[static_cast<std::size_t>(tt)].erase(tp.test_entry);
        auto& [copy_id, refs] = copies[r.id];
        if (--refs > 0) continue;
        tables[static_cast<std::size_t>(r.table_id)].update_actions(
            r.id, r.set_field, r.action);
        tables[static_cast<std::size_t>(tt)].erase(copy_id);
      }
      batched.remove_test_points(batched_tps);
      remove_single(single_tps);
      if (!installed_ok || !same_as_lin(batched_net) ||
          !same_as_lin(single_net)) {
        std::printf("DIVERGENCE: a probe round's test points differ from "
                    "the linear scan\n");
        return 1;
      }
    }
    const int timed_rounds = full ? 10 : 5;
    util::WallTimer batched_timer;
    for (int i = 0; i < timed_rounds; ++i) {
      batched.remove_test_points(batched.install_test_points(round));
    }
    const double batched_ms =
        batched_timer.elapsed_millis() / timed_rounds;
    util::WallTimer single_timer;
    for (int i = 0; i < timed_rounds; ++i) remove_single(install_single());
    const double single_ms = single_timer.elapsed_millis() / timed_rounds;
    if (batched.flowmod_count() != single.flowmod_count()) {
      std::printf("DIVERGENCE: batched and one-by-one rounds issued "
                  "different FlowMod counts\n");
      return 1;
    }
    const std::uint64_t round_mods =
        batched.flowmod_count() / static_cast<std::uint64_t>(timed_rounds + 1);
    std::printf("probe round   : 1-by-1 %8.2f ms/round | batched %8.2f "
                "ms/round | %5.1fx   (%zu test points, %llu FlowMods)\n",
                single_ms, batched_ms, single_ms / batched_ms, round.size(),
                static_cast<unsigned long long>(round_mods));
    auto& round_row = report.add_row();
    round_row["section"] = "flow_table";
    round_row["regime"] = "probe_round";
    round_row["rules"] = std::uint64_t{w.rules.entry_count()};
    round_row["test_points"] = std::uint64_t{round.size()};
    round_row["flowmods"] = round_mods;
    round_row["one_by_one_round_ms"] = single_ms;
    round_row["batched_round_ms"] = batched_ms;
    round_row["speedup"] = single_ms / batched_ms;
    report.set_summary("probe_round_batched_ms", batched_ms);
    report.set_summary("probe_round_batched_speedup", single_ms / batched_ms);
  }

  std::printf("\nall three sections verified output-identical to their "
              "baselines before timing was reported\n");
  return 0;
}

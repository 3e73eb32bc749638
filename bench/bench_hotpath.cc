// Hot-path microbench for the header-space algebra and the batched
// dataplane (DESIGN.md §13): three throughput numbers, each against a
// straightforward baseline.
//
//   cube-ops/sec       HeaderSpace::subtract chains vs the plain
//                      vector<TernaryString> algorithms (embedded below:
//                      add_cube dedup, a two-direction subsumption pass,
//                      cube_difference splitting) — same inputs, outputs
//                      checked identical cube-for-cube.
//   rules-ingested/sec FlowTable::input_space (the rule-graph construction
//                      hot loop) over a synthesized ruleset vs the same
//                      reference fold.
//   probes-injected/sec packet_out_batch vs looping packet_out through the
//                      event loop, identical packets, observable behavior
//                      already pinned by dataplane_test.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
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
      "Hot-path throughput: header-space algebra + batched injection",
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

    std::size_t ref_cubes = 0;
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
      ref_cubes += cur.size();
    }
    const double ref_s = ref_timer.elapsed_seconds();

    std::size_t table_cubes = 0;
    util::WallTimer table_timer;
    for (const auto& e : entries) {
      if (w.rules.is_removed(e.id)) continue;
      table_cubes +=
          w.rules.table(e.switch_id, e.table_id).input_space(e.id)
              .cube_count();
    }
    const double table_s = table_timer.elapsed_seconds();

    if (ref_cubes != table_cubes) {
      std::printf("DIVERGENCE: reference %zu cubes, input_space %zu\n",
                  ref_cubes, table_cubes);
      return 1;
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

  // ---- 3. probes-injected/sec: batched vs per-packet PacketOut. ----
  {
    bench::WorkloadSpec spec;
    spec.switches = 20;
    spec.links = 36;
    spec.rule_target = full ? 5000 : 2000;
    const bench::Workload w = bench::make_workload(spec);
    const int probes = full ? 20000 : 5000;
    const double spacing = 1e-5;
    util::Rng rng(7);

    auto make_items = [&] {
      std::vector<dataplane::BatchPacketOut> items;
      items.reserve(static_cast<std::size_t>(probes));
      double t = 0.0;
      for (int i = 0; i < probes; ++i) {
        dataplane::Packet p;
        hsa::TernaryString h =
            hsa::TernaryString::wildcard(w.rules.header_width());
        for (int k = 0; k < w.rules.header_width(); ++k) {
          h.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
        }
        p.header = h;
        p.probe_id = static_cast<std::uint64_t>(i) + 1;
        items.push_back(
            {static_cast<flow::SwitchId>(rng.next_below(
                 static_cast<std::uint64_t>(spec.switches))),
             std::move(p), t});
        // Bursts of 32 share a send time (one probing round's spacing).
        if (i % 32 == 31) t += spacing;
      }
      return items;
    };
    const auto items_seq = make_items();
    rng.reseed(7);
    auto items_bat = make_items();

    std::uint64_t seq_injected = 0;
    util::WallTimer seq_timer;
    {
      sim::EventLoop loop;
      dataplane::Network net(w.rules, loop);
      for (const auto& it : items_seq) {
        loop.schedule_at(it.send_at, [&net, sw = it.sw, p = it.packet] {
          net.packet_out(sw, p);
        });
      }
      loop.run();
      seq_injected = net.counters().packets_injected;
    }
    const double seq_s = seq_timer.elapsed_seconds();

    std::uint64_t bat_injected = 0;
    util::WallTimer bat_timer;
    {
      sim::EventLoop loop;
      dataplane::Network net(w.rules, loop);
      net.packet_out_batch(std::move(items_bat));
      loop.run();
      bat_injected = net.counters().packets_injected;
    }
    const double bat_s = bat_timer.elapsed_seconds();

    if (seq_injected != bat_injected) {
      std::printf("DIVERGENCE: sequential injected %llu, batched %llu\n",
                  static_cast<unsigned long long>(seq_injected),
                  static_cast<unsigned long long>(bat_injected));
      return 1;
    }
    const double seq_rate = static_cast<double>(probes) / seq_s;
    const double bat_rate = static_cast<double>(probes) / bat_s;
    const double speedup = bat_rate / seq_rate;
    std::printf("probe inject  : perpkt %10.0f prb/s  | batch %10.0f prb/s  "
                "| %5.1fx   (%d probes)\n",
                seq_rate, bat_rate, speedup, probes);
    auto& row = report.add_row();
    row["section"] = "probe_inject";
    row["probes"] = std::uint64_t{static_cast<std::uint64_t>(probes)};
    row["per_packet_probes_per_sec"] = seq_rate;
    row["batched_probes_per_sec"] = bat_rate;
    row["speedup"] = speedup;
    report.set_summary("probes_injected_per_sec", bat_rate);
    report.set_summary("probes_injected_speedup", speedup);
  }

  std::printf("\nall three sections verified output-identical to their "
              "scalar baselines before timing was reported\n");
  return 0;
}

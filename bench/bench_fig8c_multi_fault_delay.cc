// Fig. 8(c): delay to localize MULTIPLE faulty switches vs the fraction of
// faulty flow entries, on one large topology.
//
// Paper's reported shape: SDNProbe and Randomized SDNProbe are fastest at
// <= 5% faulty rules; beyond ~5% Per-rule Test becomes the fastest (it needs
// no extra localization rounds) while SDNProbe stays competitive; ATPG is
// the slowest everywhere (it recomputes test packets while localizing).
//
// Delays are simulated seconds and repeat exactly from run to run. Each
// generating scheme's "gen" column is the host seconds it spent building
// covers and probes (DetectionReport::generation_wall_s): measured, so it
// varies with the host, and never added to the delay.
#include <cstdio>
#include <vector>

#include "baselines/atpg.h"
#include "baselines/per_rule.h"
#include "core/analysis_snapshot.h"
#include "bench/bench_util.h"

using namespace sdnprobe;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header(
      "Fig 8(c): delay to localize multiple faulty switches vs fault rate",
      "SDNProbe ICDCS'18 Figure 8(c)");
  bench::BenchReport report("fig8c_multi_fault_delay",
                            "SDNProbe ICDCS'18 Figure 8(c)", full);

  bench::WorkloadSpec spec;
  spec.switches = full ? 40 : 24;
  spec.links = full ? 75 : 44;
  spec.rule_target = full ? 20000 : 5000;
  spec.seed = 3;
  const bench::Workload w = bench::make_workload(spec);
  core::RuleGraph graph(w.rules);
  const core::AnalysisSnapshot snap(graph);
  std::printf("topology: %d switches, %zu rules, %d testable\n\n",
              spec.switches, w.rules.entry_count(), graph.vertex_count());
  report.set_param("switches", spec.switches);
  report.set_param("rules", std::uint64_t{w.rules.entry_count()});
  report.set_param("testable_vertices", graph.vertex_count());

  const std::vector<double> fractions = {0.01, 0.02, 0.05, 0.10, 0.20, 0.50};
  std::printf("%8s | %9s %6s %11s %6s %9s %6s %9s\n", "faulty%", "SDNProbe",
              "gen", "Randomized", "gen", "ATPG", "gen", "Per-rule");

  for (const double f : fractions) {
    const std::size_t count = static_cast<std::size_t>(
        f * static_cast<double>(graph.vertex_count()));
    double delays[4] = {0, 0, 0, 0};
    double gen[4] = {0, 0, 0, 0};  // host seconds; Per-rule's stays 0
    for (int scheme = 0; scheme < 4; ++scheme) {
      sim::EventLoop loop;
      dataplane::Network net(w.rules, loop);
      controller::Controller ctrl(w.rules, net);
      util::Rng rng(17);
      core::FaultMix mix;
      mix.misdirect = false;  // drops: cleanly detectable by every scheme
      mix.modify = false;
      core::plan_basic_faults(graph, count, mix, rng, &net.faults());
      const auto truth = net.faulty_switches();
      core::DetectionReport rep;
      switch (scheme) {
        case 0:
        case 1: {
          core::LocalizerConfig lc;
          lc.common.randomized = (scheme == 1);
          lc.max_rounds = 96;
          core::FaultLocalizer loc(snap, ctrl, loop, lc);
          rep = loc.run([&truth](const core::DetectionReport& r) {
            for (const auto s : truth) {
              if (!r.flagged(s)) return false;
            }
            return true;  // all faulty switches localized
          });
          delays[scheme] = rep.detection_time_s > 0 ? rep.detection_time_s
                                                    : rep.total_time_s;
          break;
        }
        case 2: {
          baselines::Atpg atpg(snap, ctrl, loop);
          rep = atpg.run();
          delays[scheme] = rep.total_time_s;
          break;
        }
        case 3: {
          baselines::PerRuleTest prt(snap, ctrl, loop);
          rep = prt.run();
          delays[scheme] = rep.total_time_s;
          break;
        }
      }
      gen[scheme] = rep.generation_wall_s;
    }
    std::printf("%7.0f%% | %8.2fs %5.2fs %10.2fs %5.2fs %8.2fs %5.2fs %8.2fs\n",
                f * 100.0, delays[0], gen[0], delays[1], gen[1], delays[2],
                gen[2], delays[3]);
    auto& row = report.add_row();
    row["faulty_fraction"] = f;
    row["sdnprobe_delay_s"] = delays[0];
    row["randomized_delay_s"] = delays[1];
    row["atpg_delay_s"] = delays[2];
    row["per_rule_delay_s"] = delays[3];
    row["sdnprobe_generation_wall_s"] = gen[0];
    row["randomized_generation_wall_s"] = gen[1];
    row["atpg_generation_wall_s"] = gen[2];
  }
  std::printf("\npaper shape: SDNProbe fastest at <=5%%; Per-rule fastest "
              "beyond 5%%; ATPG slowest throughout\n");
  return 0;
}

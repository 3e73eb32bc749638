// Fig. 8(b): delay to localize ONE faulty switch, per scheme, across
// topologies.
//
// Paper's reported shape: SDNProbe 1-2.5 s; Randomized SDNProbe 1-3.5 s;
// ATPG up to 13.4 s (extra per-round test-packet computation); Per-rule Test
// significantly higher (it serializes one probe per rule at 250 KB/s).
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

namespace {

// Runs one scheme on a fresh network with a single random drop fault and
// returns the simulated detection delay (time until the faulty switch is
// flagged; total run time for the single-round baselines) and the host
// generation seconds of the three generating schemes.
struct DelayRow {
  double sdnprobe = 0, randomized = 0, atpg = 0, per_rule = 0;
  double sdnprobe_gen = 0, randomized_gen = 0, atpg_gen = 0;
  bool all_correct = true;
};

DelayRow run_case(const bench::Workload& w, std::uint64_t fault_seed) {
  DelayRow row;
  core::RuleGraph graph(w.rules);
  const core::AnalysisSnapshot snap(graph);

  auto plant_one = [&](dataplane::Network& net) {
    util::Rng rng(fault_seed);
    const auto ids = core::choose_faulty_entries(graph, 1, rng);
    net.faults().add_fault(ids[0], dataplane::FaultSpec::Drop());
    return w.rules.entry(ids[0]).switch_id;
  };

  for (int scheme = 0; scheme < 4; ++scheme) {
    sim::EventLoop loop;
    dataplane::Network net(w.rules, loop);
    controller::Controller ctrl(w.rules, net);
    const flow::SwitchId truth = plant_one(net);
    core::DetectionReport rep;
    switch (scheme) {
      case 0:
      case 1: {
        core::LocalizerConfig lc;
        lc.common.randomized = (scheme == 1);
        lc.max_rounds = 64;
        core::FaultLocalizer loc(snap, ctrl, loop, lc);
        rep = loc.run([truth](const core::DetectionReport& r) {
          return r.flagged(truth);  // stop as soon as localized
        });
        (scheme == 0 ? row.sdnprobe : row.randomized) = rep.detection_time_s;
        (scheme == 0 ? row.sdnprobe_gen : row.randomized_gen) =
            rep.generation_wall_s;
        break;
      }
      case 2: {
        baselines::Atpg atpg(snap, ctrl, loop);
        rep = atpg.run();
        row.atpg = rep.total_time_s;
        row.atpg_gen = rep.generation_wall_s;
        break;
      }
      case 3: {
        baselines::PerRuleTest prt(snap, ctrl, loop);
        rep = prt.run();
        row.per_rule = rep.total_time_s;
        break;
      }
    }
    bool found = false;
    for (const auto s : rep.flagged_switches) found |= (s == truth);
    row.all_correct &= found;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header("Fig 8(b): delay to localize one faulty switch",
                      "SDNProbe ICDCS'18 Figure 8(b)");
  bench::BenchReport report("fig8b_single_fault_delay",
                            "SDNProbe ICDCS'18 Figure 8(b)", full);
  struct Size {
    int switches, links;
    long rules;
  };
  std::vector<Size> sizes = full
                                ? std::vector<Size>{{20, 36, 5000},
                                                    {30, 54, 12000},
                                                    {40, 75, 20000}}
                                : std::vector<Size>{{16, 28, 2000},
                                                    {22, 40, 4000},
                                                    {28, 50, 7000}};
  std::printf("%8s | %9s %6s %11s %6s %9s %6s %9s | %s\n", "rules",
              "SDNProbe", "gen", "Randomized", "gen", "ATPG", "gen",
              "Per-rule", "fault found by all");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bench::WorkloadSpec spec;
    spec.switches = sizes[i].switches;
    spec.links = sizes[i].links;
    spec.rule_target = sizes[i].rules;
    spec.seed = i + 1;
    const bench::Workload w = bench::make_workload(spec);
    const DelayRow row = run_case(w, 1000 + i);
    std::printf("%8zu | %8.2fs %5.2fs %10.2fs %5.2fs %8.2fs %5.2fs %8.2fs | "
                "%s\n",
                w.rules.entry_count(), row.sdnprobe, row.sdnprobe_gen,
                row.randomized, row.randomized_gen, row.atpg, row.atpg_gen,
                row.per_rule, row.all_correct ? "yes" : "NO");
    auto& out = report.add_row();
    out["rules"] = std::uint64_t{w.rules.entry_count()};
    out["switches"] = sizes[i].switches;
    out["sdnprobe_delay_s"] = row.sdnprobe;
    out["randomized_delay_s"] = row.randomized;
    out["atpg_delay_s"] = row.atpg;
    out["per_rule_delay_s"] = row.per_rule;
    out["sdnprobe_generation_wall_s"] = row.sdnprobe_gen;
    out["randomized_generation_wall_s"] = row.randomized_gen;
    out["atpg_generation_wall_s"] = row.atpg_gen;
    out["all_correct"] = row.all_correct;
  }
  std::printf("\npaper shape: SDNProbe 1-2.5s < Randomized 1-3.5s < ATPG "
              "(<=13.4s) < Per-rule\n");
  return 0;
}

// Table II: test-packet generation at scale, over the paper's five topology
// presets (switch/link counts from Rocketfuel samples, rule counts as
// published):
//
//   Topo  Rules    Switches Links | MLPS ALPS  NLPS      TPC     PCT(s)
//   1     4,764    10       15    | 6    4.99  14,844    954     2.9
//   2     33,637   30       54    | 9    8.00  155,646   4,203   87.7
//   3     82,740   30       54    | 6    5.48  273,128   15,098  178.5
//   4     205,713  79       147   | 9    8.41  983,245   24,456  970.2
//   5     358,675  79       147   | 9    8.42  1,713,258 42,590  2,549.2
//
// By default the first three presets run (the largest two take tens of
// minutes, like the paper's 970 s / 2549 s pre-computation); pass --full for
// all five. Absolute numbers differ from the paper's (different hardware and
// synthetic rules); the shape to check is MLPS/ALPS in the 5-9 range, NLPS
// greatly exceeding the rule count, TPC a small fraction of the rule count,
// and PCT growing superlinearly with rules.
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis_snapshot.h"
#include "core/legal_paths.h"
#include "core/mlpc.h"
#include "telemetry/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace sdnprobe;

namespace {

// Wall seconds of the last recorded span called `name`; 0 when none was.
double last_span_s(const telemetry::MetricsRegistry& registry,
                   std::string_view name) {
  const auto spans = registry.spans();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->name == name) return it->wall_ms / 1000.0;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header("Table II: test packet generation at scale",
                      "SDNProbe ICDCS'18 Table II");
  bench::BenchReport report("table2_scalability",
                            "SDNProbe ICDCS'18 Table II", full);

  const auto& presets = topo::table_two_presets();
  const std::size_t count = full ? presets.size() : 3;

  std::printf("%6s %9s %9s %6s | %5s %6s %10s %8s %9s %8s %8s %8s\n",
              "topo", "rules", "switches", "links", "MLPS", "ALPS", "NLPS",
              "TPC", "PCT(s)", "RGin(s)", "RGedge(s)", "MLPC(s)");
  for (std::size_t i = 0; i < count; ++i) {
    const auto& p = presets[i];
    bench::WorkloadSpec spec;
    spec.switches = p.switches;
    spec.links = p.links;
    spec.rule_target = p.rules;
    // Wider subnet space for the biggest rulesets.
    spec.seed = i + 1;
    topo::GeneratorConfig tc;
    tc.node_count = spec.switches;
    tc.link_count = spec.links;
    tc.seed = spec.seed;
    const topo::Graph g = topo::make_rocketfuel_like(tc);
    flow::SynthesizerConfig sc;
    sc.target_entry_count = p.rules;
    sc.subnet_bits = 16;  // enough subnets per destination at 358k rules
    sc.aggregates = true;
    sc.k_paths = 3;
    sc.seed = spec.seed * 31 + 7;
    const flow::RuleSet rs = flow::synthesize_ruleset(g, sc);

    // PCT = rule-graph construction + MLPC + header construction (§VIII-C).
    // RG and MLPC are the rule-graph construction and cover shares of it.
    // RG splits into its vertex phase (every entry's input space) and its
    // edge phase, read off the library's trace spans; the global registry
    // records spans only while enabled, so the build runs with it on.
    auto& registry = telemetry::MetricsRegistry::global();
    const bool metrics_on = registry.enabled();
    registry.set_enabled(true);
    util::WallTimer pct;
    core::RuleGraph graph(rs);
    const double rule_graph_s = pct.elapsed_seconds();
    registry.set_enabled(metrics_on);
    const double input_spaces_s =
        last_span_s(registry, "rule_graph.input_spaces");
    const double edges_s = last_span_s(registry, "rule_graph.edges");
    core::AnalysisSnapshot snap(graph);
    core::MlpcConfig mc;
    mc.deterministic_restarts = 2;  // keep the big presets tractable
    const double mlpc_start_s = pct.elapsed_seconds();
    const core::Cover cover = core::MlpcSolver(mc).solve(snap);
    const double pct_s = pct.elapsed_seconds();
    const double mlpc_s = pct_s - mlpc_start_s;

    const auto stats =
        core::compute_legal_path_stats(graph, full ? 20'000'000 : 4'000'000);
    std::printf(
        "%6s %9zu %9d %6d | %5zu %6.2f %9zu%s %8zu %9.1f %8.2f %9.2f "
        "%8.2f\n",
        p.name, rs.entry_count(), g.node_count(), g.edge_count(),
        stats.max_length, stats.average_length, stats.total_paths,
        stats.truncated ? "+" : " ", cover.path_count(), pct_s,
        input_spaces_s, edges_s, mlpc_s);
    auto& row = report.add_row();
    row["topo"] = p.name;
    row["rules"] = std::uint64_t{rs.entry_count()};
    row["switches"] = g.node_count();
    row["links"] = g.edge_count();
    row["mlps"] = std::uint64_t{stats.max_length};
    row["alps"] = stats.average_length;
    row["nlps"] = std::uint64_t{stats.total_paths};
    row["nlps_truncated"] = stats.truncated;
    row["tpc"] = std::uint64_t{cover.path_count()};
    row["pct_s"] = pct_s;
    row["rule_graph_s"] = rule_graph_s;
    row["rule_graph_input_spaces_s"] = input_spaces_s;
    row["rule_graph_edges_s"] = edges_s;
    row["mlpc_s"] = mlpc_s;

    if (i + 1 == count) {
      // Thread-scaling sweep on the largest topology run: the parallel
      // deterministic restarts must return the *same* cover at every thread
      // count while the wall clock drops.
      std::printf("\nMLPC thread scaling on topo %s "
                  "(8 deterministic restarts, %u hardware threads):\n",
                  p.name, std::thread::hardware_concurrency());
      core::MlpcConfig sweep;
      sweep.deterministic_restarts = 8;
      auto fingerprint = [](const core::Cover& c) {
        std::size_t h = c.path_count();
        for (const auto& path : c.paths) {
          for (const core::VertexId v : path.vertices) {
            h = h * 1000003u + static_cast<std::size_t>(v);
          }
        }
        return h;
      };
      double t1 = 0.0;
      std::size_t ref = 0;
      for (const int threads : {1, 2, 4}) {
        const auto pool = threads > 1 ? std::make_unique<util::ThreadPool>(
                                            static_cast<std::size_t>(threads))
                                      : nullptr;
        util::WallTimer timer;
        const core::Cover c = core::MlpcSolver(sweep, pool.get()).solve(snap);
        const double s = timer.elapsed_seconds();
        if (threads == 1) {
          t1 = s;
          ref = fingerprint(c);
        }
        std::printf("  threads=%d: %8.2f s  speedup %.2fx  cover %zu%s\n",
                    threads, s, s > 0.0 ? t1 / s : 0.0, c.path_count(),
                    fingerprint(c) == ref ? "" : "  COVER MISMATCH");
        auto& row = report.add_row();
        row["sweep"] = "mlpc_thread_scaling";
        row["threads"] = threads;
        row["seconds"] = s;
        row["speedup"] = s > 0.0 ? t1 / s : 0.0;
        row["cover"] = std::uint64_t{c.path_count()};
        row["cover_matches_single_thread"] = fingerprint(c) == ref;
      }
    }
  }
  if (!full) {
    std::printf("\n(presets 4-5 at 205k/358k rules run with --full; they "
                "take minutes, as the paper's 970s/2549s PCT suggests)\n");
  }
  std::printf("\npaper shape: TPC << rules; NLPS >> rules; PCT grows "
              "superlinearly; MLPS 6-9, ALPS 5-8.4\n");
  return 0;
}

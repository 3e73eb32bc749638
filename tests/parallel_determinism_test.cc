// The determinism contract: MLPC covers, probe headers, probe stats, and
// end-to-end DetectionReports are bit-identical for every thread count on a
// Table-2-sized topology (30 switches / 54 links, thousands of rules). The
// solver and the probe engine run on the pool their caller passes in.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "sim/event_loop.h"
#include "topo/generator.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {
namespace {

flow::RuleSet table2_sized_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 30;
  tc.link_count = 54;
  tc.seed = 2;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 6000;
  sc.aggregates = true;
  sc.k_paths = 3;
  sc.seed = 71;
  return flow::synthesize_ruleset(g, sc);
}

std::vector<std::vector<VertexId>> cover_paths(const Cover& c) {
  std::vector<std::vector<VertexId>> out;
  out.reserve(c.paths.size());
  for (const auto& p : c.paths) out.push_back(p.vertices);
  return out;
}

std::vector<std::string> probe_fingerprints(const std::vector<Probe>& probes) {
  std::vector<std::string> out;
  out.reserve(probes.size());
  for (const Probe& p : probes) {
    std::string fp = p.header.to_string() + "|" +
                     p.expected_return.to_string() + "|";
    for (const VertexId v : p.path) fp += std::to_string(v) + ",";
    out.push_back(std::move(fp));
  }
  return out;
}

TEST(ParallelDeterminism, MlpcCoverIdenticalAcrossThreadCounts) {
  const flow::RuleSet rs = table2_sized_ruleset();
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);

  MlpcConfig mc;
  mc.deterministic_restarts = 6;
  mc.common.threads = 1;
  const Cover reference = MlpcSolver(mc).solve(snap);
  EXPECT_GT(reference.path_count(), 0u);

  for (const int threads : {2, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    mc.common.threads = threads;
    const Cover cover = MlpcSolver(mc, &pool).solve(snap);
    EXPECT_EQ(cover_paths(cover), cover_paths(reference))
        << "threads=" << threads << " changed the deterministic cover";
  }
}

TEST(ParallelDeterminism, ProbeHeadersAndStatsIdenticalAcrossThreadCounts) {
  const flow::RuleSet rs = table2_sized_ruleset();
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);

  std::vector<std::string> ref_fp;
  ProbeStats ref_stats;
  std::uint64_t ref_rng_after = 0;
  for (const int threads : {1, 2, 8}) {
    ProbeEngineConfig pc;
    pc.common.threads = threads;
    const auto pool =
        threads > 1
            ? std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads))
            : nullptr;
    ProbeEngine engine(snap, pc, pool.get());
    util::Rng rng(5);
    const auto probes = engine.make_probes(cover, rng);
    ASSERT_EQ(probes.size(), cover.path_count());
    const auto fp = probe_fingerprints(probes);
    // make_probes consumes exactly one caller draw, so the caller's stream
    // position must also be thread-count independent.
    const std::uint64_t rng_after = rng.next();
    if (threads == 1) {
      ref_fp = fp;
      ref_stats = engine.stats();
      ref_rng_after = rng_after;
      continue;
    }
    EXPECT_EQ(fp, ref_fp) << "threads=" << threads << " changed headers";
    EXPECT_TRUE(engine.stats() == ref_stats)
        << "threads=" << threads << " changed ProbeStats";
    EXPECT_EQ(rng_after, ref_rng_after);
  }
}

// Polynomial hash of every probe's header, expected return and path.
std::uint64_t probe_set_fingerprint(const std::vector<Probe>& probes) {
  std::uint64_t fp = probes.size();
  for (const auto& p : probes) {
    for (const char c : p.header.to_string() + p.expected_return.to_string()) {
      fp = fp * 1000003u + static_cast<std::uint64_t>(c);
    }
    for (const auto v : p.path) {
      fp = fp * 1000003u + static_cast<std::uint64_t>(v);
    }
  }
  return fp;
}

TEST(ParallelDeterminism, AllFallbackProbeReportsIdenticalAcrossThreadCounts) {
  // sample_attempts = 0 sends every probe header through the lex-min
  // fallback; reports must be bit-identical at 1/2/8 threads and equal the
  // golden fingerprint.
  topo::GeneratorConfig tc;
  tc.node_count = 10;
  tc.link_count = 16;
  tc.seed = 3;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 200;
  sc.set_field_fraction = 0.2;
  sc.seed = 4;
  const flow::RuleSet rs = flow::synthesize_ruleset(g, sc);
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);

  std::vector<std::string> reference;
  for (const int threads : {1, 2, 8}) {
    ProbeEngineConfig cfg;
    cfg.common.threads = threads;
    cfg.sample_attempts = 0;
    const auto pool =
        threads > 1
            ? std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads))
            : nullptr;
    ProbeEngine engine(snap, cfg, pool.get());
    util::Rng rng(11);
    const auto probes = engine.make_probes(cover, rng);
    ASSERT_FALSE(probes.empty());
    EXPECT_EQ(engine.stats().headers_by_sampling, 0u);
    EXPECT_EQ(engine.stats().headers_by_sat,
              static_cast<std::uint64_t>(probes.size()));
    // Captured from the incremental-SAT session this search replaced.
    EXPECT_EQ(probes.size(), 80u);
    EXPECT_EQ(probe_set_fingerprint(probes), 11826447530750239864ull);
    auto rendered = probe_fingerprints(probes);
    if (reference.empty()) {
      reference = std::move(rendered);
    } else {
      EXPECT_EQ(rendered, reference)
          << "probe report diverged at " << threads << " threads";
    }
  }
}

// --- End-to-end DetectionReport determinism (ISSUE 4 acceptance) ---------

flow::RuleSet report_sized_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = 9;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 900;
  sc.seed = 41;
  return flow::synthesize_ruleset(g, sc);
}

// Bit-exact fingerprint of everything a DetectionReport records. hexfloat
// keeps the doubles lossless, so any drift — even one ULP of simulated
// time — fails the comparison.
std::string report_fingerprint(const DetectionReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto s : r.flagged_switches) os << s << ",";
  os << "|" << r.detection_time_s << "|" << r.total_time_s << "|"
     << r.probes_sent << "|" << r.retries_sent << "|" << r.retry_recoveries
     << "|" << r.rounds << "\n";
  for (const auto& rec : r.round_log) {
    os << rec.round << ":" << rec.start_s << ":" << rec.end_s << ":"
       << rec.probes << ":" << rec.failures << ":" << rec.retries << ":"
       << rec.recovered << ":";
    for (const auto s : rec.newly_flagged) os << s << ",";
    os << "\n";
  }
  return os.str();
}

struct ReportRunOptions {
  int threads = 1;
  bool randomized = false;
  int confirm_retries = 0;
  bool adaptive_timeout = false;
  // When set, installs an explicit (possibly all-zero) channel model.
  const dataplane::ChannelModelConfig* channel = nullptr;
};

DetectionReport run_report(const flow::RuleSet& rs,
                           const ReportRunOptions& opt) {
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::NetworkConfig nc;
  if (opt.channel) nc.channel = *opt.channel;
  dataplane::Network net(rs, loop, nc);
  controller::Controller ctrl(rs, net);
  util::Rng rng(17);
  plan_basic_faults(graph, 2, FaultMix{}, rng, &net.faults());
  LocalizerConfig lc;
  lc.common.threads = opt.threads;
  lc.common.randomized = opt.randomized;
  lc.max_rounds = 24;
  // Wall-clock generation charging is real-time noise by design; exact
  // report equality requires it off.
  lc.charge_generation_time = false;
  lc.confirm_retries = opt.confirm_retries;
  lc.adaptive_timeout = opt.adaptive_timeout;
  FaultLocalizer loc(snap, ctrl, loop, lc);
  return loc.run();
}

TEST(ParallelDeterminism, DetectionReportIdenticalAcrossThreadCounts) {
  const flow::RuleSet rs = report_sized_ruleset();
  for (const bool randomized : {false, true}) {
    ReportRunOptions opt;
    opt.randomized = randomized;
    opt.threads = 1;
    const std::string ref = report_fingerprint(run_report(rs, opt));
    opt.threads = 4;
    EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref)
        << "threads=4 changed the report (randomized=" << randomized << ")";
  }
}

// --- Monitor churn-round determinism (ISSUE 5 acceptance) ----------------

// Bit-exact fingerprint of a whole monitor run: every round record, the
// cumulative report, churn/repair counters, and the live probe set.
std::string monitor_fingerprint(const monitor::Monitor& mon) {
  std::ostringstream os;
  os << std::hexfloat;
  const monitor::MonitorReport& rep = mon.report();
  for (const auto s : rep.flagged_switches) os << s << ",";
  os << "|" << rep.rounds << "|" << rep.probes_sent << "|" << rep.failures
     << "\n";
  for (const monitor::MonitorRound& r : rep.round_log) {
    os << r.index << ":" << r.epoch << ":" << r.start_s << ":" << r.end_s
       << ":" << r.probes_sent << ":" << r.failures << ":"
       << r.localizer_rounds << ":";
    for (const auto s : r.newly_flagged) os << s << ",";
    os << "\n";
  }
  const monitor::ChurnStats& cs = mon.churn_stats();
  os << cs.batches << "|" << cs.installs << "|" << cs.removals << "|"
     << cs.probes_kept << "|" << cs.probes_regenerated << "|"
     << cs.probes_retired << "\n";
  for (const std::string& fp : probe_fingerprints(mon.probes())) {
    os << fp << "\n";
  }
  return os.str();
}

// One scripted monitor lifetime: clean round, churn batch (installs and
// removals), round against the new epoch, a drop fault, localizing round.
std::string run_monitor_scripted(const flow::RuleSet& pristine, int threads) {
  flow::RuleSet rules = pristine;
  flow::SynthesizerConfig spare_sc;
  spare_sc.target_entry_count = 60;
  spare_sc.seed = 97;
  const flow::RuleSet spare =
      flow::synthesize_ruleset(rules.topology(), spare_sc);
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);
  monitor::MonitorConfig mc;
  mc.common.threads = threads;
  mc.localizer.charge_generation_time = false;
  monitor::Monitor mon(rules, ctrl, loop, mc);

  mon.run_round();
  for (std::size_t i = 0; i < 4; ++i) {
    flow::FlowEntry e = spare.entry(static_cast<flow::EntryId>(i));
    e.id = -1;
    mon.enqueue(monitor::ChurnOp::install(std::move(e)));
  }
  mon.enqueue(monitor::ChurnOp::remove(7));
  mon.enqueue(monitor::ChurnOp::remove(23));
  mon.run_round();

  util::Rng rng(17);
  const auto snap = mon.snapshot();
  const auto faulty = choose_faulty_entries(snap->graph(), 1, rng);
  FaultMix mix;
  mix.misdirect = false;
  mix.modify = false;
  net.faults().add_fault(faulty[0],
                         make_fault(snap->graph(), faulty[0], mix, rng));
  mon.run_round();
  mon.run_round();
  return monitor_fingerprint(mon);
}

TEST(ParallelDeterminism, MonitorChurnRoundsIdenticalAcrossThreadCounts) {
  const flow::RuleSet rs = report_sized_ruleset();
  const std::string ref = run_monitor_scripted(rs, 1);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(run_monitor_scripted(rs, threads), ref)
        << "threads=" << threads << " changed the monitor run";
  }
}

TEST(ParallelDeterminism, ZeroRateChannelModelKeepsReportsBitIdentical) {
  const flow::RuleSet rs = report_sized_ruleset();
  ReportRunOptions opt;
  const std::string ref = report_fingerprint(run_report(rs, opt));
  // An explicit all-zero channel model (with a nonzero seed) must take the
  // noiseless fast path: zero RNG draws, so the report stays bit-identical
  // to a network that predates the channel model.
  dataplane::ChannelModelConfig cm;
  cm.seed = 0xDEADBEEFu;
  opt.channel = &cm;
  for (const int threads : {1, 4}) {
    opt.threads = threads;
    EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref)
        << "zero-rate channel model perturbed the report at threads="
        << threads;
  }
}

TEST(ParallelDeterminism, LossToleranceConfigIsThreadInvariant) {
  // Retries + adaptive timeouts enabled: genuinely faulty paths do trigger
  // confirmation re-sends, and the grace periods derive from observed RTTs.
  // Both mechanisms must stay bit-identical across thread counts.
  const flow::RuleSet rs = report_sized_ruleset();
  ReportRunOptions opt;
  opt.confirm_retries = 2;
  opt.adaptive_timeout = true;
  opt.threads = 1;
  const std::string ref = report_fingerprint(run_report(rs, opt));
  opt.threads = 4;
  EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref);
}

}  // namespace
}  // namespace sdnprobe::core

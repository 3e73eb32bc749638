#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "analysis/invariant.h"
#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "repair/engine.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pipebench {

using namespace sdnprobe;

void Gate::check(bool ok, const std::string& what) {
  constexpr std::uint64_t kMaxLogged = 20;
  ++attempted_;
  if (ok) return;
  if (failed_ < kMaxLogged) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  ++failed_;
}

namespace {

// Every generated input derives from the command-line seed through its own
// stream, so changing one generator never shifts another's draws. (The
// networks themselves are fixed per workload; see NetSpec.)
enum Stream : std::uint64_t {
  kSpareRules = 1,
  kProbeHeaders,
  kFaults,
  kChurn,
  kChannel,
  kLocalizer,
  kMonitor,
  kRepair,
};

std::uint64_t stream_seed(std::uint64_t seed, Stream s) {
  return util::Rng::derive(seed, s);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads.

struct Ctx {
  const Options& opt;
  Gate& gate;
  Tracer tr;
  std::unique_ptr<util::ThreadPool> pool;  // null when single-threaded
  // True for the traced repetition: it fills `layer` and runs the
  // trace-only extras before tearing its world down.
  bool traced = false;
  std::map<std::string, double> layer;
};

// Timing samples across the repetitions of one run. The work timings are
// reported as means: a shared host runs this code in speed regimes about
// 1.6x apart that last seconds, so samples are bimodal and a median jumps
// between the modes as their shares shift from run to run, while the mean
// moves only in proportion. Set-up time is the median of its samples.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> pct_s;
  // Localization episode wall times, by fault plan: plans differ in how
  // long a hunt takes, so localize() averages the per-plan means.
  std::map<int, std::vector<double>> localize_s;
  std::vector<double> drain_ms;
  std::vector<double> round_ms;
  std::vector<double> heal_s;

  double pct() const { return mean(pct_s); }
  double localize() const {
    double sum = 0.0;
    for (const auto& [plan, v] : localize_s) sum += mean(v);
    return ratio(sum, static_cast<double>(localize_s.size()));
  }
};

// The deterministic outputs of one repetition: equal for equal seeds, and
// summed over a workload's period of repetitions into the reported counts.
struct Counts {
  std::size_t tpc = 0;
  std::uint64_t episodes = 0;     // localization episodes run
  std::uint64_t probes_sent = 0;  // probes + confirmation retries they sent
  std::uint64_t faulty = 0;       // faulty switches hunted
  std::uint64_t missed = 0;       // ... not flagged
  std::uint64_t clean = 0;        // clean switches observed
  std::uint64_t false_flags = 0;  // ... flagged
  std::uint64_t collisions = 0;   // cover probes with terminal collisions
  std::vector<double> flagged_at_s;  // sim time to flag, per caught fault
  std::string detail;

  std::string render() const {
    std::ostringstream os;
    os.precision(17);
    os << "tpc=" << tpc << " episodes=" << episodes
       << " probes_sent=" << probes_sent << " faulty=" << faulty
       << " missed=" << missed << " clean=" << clean
       << " false_flags=" << false_flags << " collisions=" << collisions
       << " flagged_at_s=";
    for (const double t : flagged_at_s) os << t << ",";
    os << " " << detail;
    return os.str();
  }
};

// ---------------------------------------------------------------------------
// Generators: topology, rules, fault plans, churn. The library only ever
// sees what these produce.

// A workload's network is fixed, like a Table II preset: the seed varies
// what happens on it (faults, churn, channel noise, probe headers), not the
// network, so runs with different seeds measure the same pipeline work.
struct NetSpec {
  int switches;
  int links;
  long rules;
  int subnet_bits;
  std::uint64_t topology_seed;
  std::uint64_t rules_seed;
};

// Table II preset 3, synthesized exactly as bench_table2_scalability does.
NetSpec topo3_spec() {
  const topo::TableTwoPreset& p = topo::table_two_presets()[2];
  return NetSpec{p.switches, p.links, p.rules, 16, 3, 3 * 31 + 7};
}
// bench_monitor_churn's 10k-rule network (bench::make_workload, seed 3).
constexpr NetSpec kTenK{30, 54, 10000, 12, 3, 3 * 7919 + 13};

flow::RuleSet generate_rules(const NetSpec& spec, Tracer& tr) {
  topo::GeneratorConfig tc;
  tc.node_count = spec.switches;
  tc.link_count = spec.links;
  tc.seed = spec.topology_seed;
  topo::Graph g;
  {
    Scope s(tr, "topo.make_rocketfuel_like");
    g = topo::make_rocketfuel_like(tc);
  }
  flow::SynthesizerConfig sc;
  sc.target_entry_count = spec.rules;
  sc.subnet_bits = spec.subnet_bits;
  sc.aggregates = true;
  sc.k_paths = 3;
  sc.seed = spec.rules_seed;
  Scope s(tr, "flow.synthesize_ruleset");
  return flow::synthesize_ruleset(g, sc);
}

struct PlannedFault {
  flow::EntryId entry = -1;
  flow::SwitchId sw = -1;
  dataplane::FaultSpec spec;
};

enum class FaultKinds { kBasic, kDrop };

// A modify fault that flips one bit the entry's match pins, so every packet
// the entry handles leaves it with a header no downstream test point
// expects. (Rewriting a bit the match wildcards is a no-op for the headers
// that already carry the written value, which can hide a fault from its own
// singleton probe and leave Algorithm 2 slicing until max_rounds.)
dataplane::FaultSpec modify_fault(const flow::FlowEntry& e, util::Rng& rng) {
  std::vector<int> pinned;
  for (int k = 0; k < e.match.width(); ++k) {
    if (e.match.get(k) != hsa::Trit::kWild) pinned.push_back(k);
  }
  if (pinned.empty()) return dataplane::FaultSpec::Drop();
  const int bit = pinned[rng.pick_index(pinned.size())];
  hsa::TernaryString set = hsa::TernaryString::wildcard(e.match.width());
  set.set(bit, e.match.get(bit) == hsa::Trit::kOne ? hsa::Trit::kZero
                                                   : hsa::Trit::kOne);
  return dataplane::FaultSpec::Modify(set);
}

// A misdirect fault: any port of the switch other than the entry's own
// output port (the host port included).
dataplane::FaultSpec misdirect_fault(const flow::RuleSet& rules,
                                     const flow::FlowEntry& e,
                                     util::Rng& rng) {
  const auto ports =
      static_cast<std::uint64_t>(rules.topology().degree(e.switch_id) + 1);
  flow::PortId wrong = e.action.out_port;
  while (wrong == e.action.out_port) {
    wrong = static_cast<flow::PortId>(rng.next_below(ports));
  }
  return dataplane::FaultSpec::Misdirect(wrong);
}

// `count` faults on distinct switches, each on a uniformly drawn active
// rule-graph vertex. kBasic draws drop / misdirect / modify uniformly; the
// first `intermittent` faults are active half of every second, from a
// random phase.
std::vector<PlannedFault> plan_faults(const core::AnalysisSnapshot& snap,
                                      std::size_t count, FaultKinds kinds,
                                      std::size_t intermittent,
                                      util::Rng& rng) {
  std::vector<PlannedFault> plan;
  std::set<flow::SwitchId> used;
  const auto vertices = static_cast<std::uint64_t>(snap.vertex_count());
  while (plan.size() < count) {
    const auto v = static_cast<core::VertexId>(rng.next_below(vertices));
    if (!snap.is_active(v)) continue;
    const flow::EntryId id = snap.entry_of(v);
    const flow::FlowEntry& e = snap.rules().entry(id);
    if (!used.insert(e.switch_id).second) continue;
    PlannedFault f{id, e.switch_id, dataplane::FaultSpec::Drop()};
    switch (kinds == FaultKinds::kBasic ? rng.next_below(3) : 0) {
      case 1:
        f.spec = misdirect_fault(snap.rules(), e, rng);
        break;
      case 2:
        f.spec = modify_fault(e, rng);
        break;
      default:
        break;
    }
    if (plan.size() < intermittent) {
      constexpr double kPeriod = 1.0;
      f.spec.intermittent(kPeriod, 0.5, rng.next_double() * kPeriod);
    }
    plan.push_back(std::move(f));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Pipeline pieces, each wrapped in the span of the layer it enters.

struct World {
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;
};

std::unique_ptr<World> make_world(const flow::RuleSet& rules,
                                  const dataplane::NetworkConfig& nc,
                                  Tracer& tr) {
  auto w = std::make_unique<World>();
  {
    Scope s(tr, "dataplane.network");
    w->net = std::make_unique<dataplane::Network>(rules, w->loop, nc);
  }
  Scope s(tr, "controller.construct");
  w->ctrl = std::make_unique<controller::Controller>(rules, *w->net);
  return w;
}

// Table II's PCT pipeline: rule graph, snapshot, MLPC, probe headers.
struct ColdCover {
  std::unique_ptr<core::RuleGraph> graph;
  std::unique_ptr<core::AnalysisSnapshot> snap;
  core::Cover cover;
  std::vector<core::Probe> probes;
  double pct_s = 0.0;
};

ColdCover build_cover(const flow::RuleSet& rules, Ctx& c) {
  util::ThreadPool* pool = c.pool.get();
  ColdCover cc;
  util::WallTimer timer;
  {
    Scope s(c.tr, "rule_graph.build");
    cc.graph = std::make_unique<core::RuleGraph>(rules);
  }
  {
    Scope s(c.tr, "snapshot.build");
    cc.snap = std::make_unique<core::AnalysisSnapshot>(*cc.graph);
  }
  {
    Scope s(c.tr, "mlpc.solve");
    core::MlpcConfig mc;
    mc.common.threads = c.opt.threads;
    cc.cover = core::MlpcSolver(mc, pool).solve(*cc.snap);
  }
  {
    Scope s(c.tr, "probe_engine.make_probes");
    core::ProbeEngineConfig ec;
    ec.common.threads = c.opt.threads;
    core::ProbeEngine engine(*cc.snap, ec, pool);
    util::Rng rng(stream_seed(c.opt.seed, kProbeHeaders));
    cc.probes = engine.make_probes(cc.cover, rng);
  }
  cc.pct_s = timer.elapsed_seconds();
  return cc;
}

std::uint64_t cover_fingerprint(const core::Cover& cover) {
  std::uint64_t h = cover.path_count();
  for (const core::CoverPath& path : cover.paths) {
    for (const core::VertexId v : path.vertices) {
      h = h * 1000003u + static_cast<std::uint64_t>(v);
    }
  }
  return h;
}

// The probe-set gate: every path legal, every header inside its path's
// input space, headers unique among concurrently installed probes, and
// every active vertex on some probe path.
void check_probe_set(const core::AnalysisSnapshot& snap,
                     const std::vector<core::Probe>& probes, Ctx& c,
                     const char* where) {
  Scope s(c.tr, "check.probe_set");
  const std::size_t n = probes.size();
  std::vector<std::uint8_t> legal(n, 0);
  std::vector<std::uint8_t> inside(n, 0);
  constexpr std::size_t kChunks = 64;
  util::parallel_for(c.pool.get(), kChunks, [&](std::size_t chunk) {
    for (std::size_t i = chunk; i < n; i += kChunks) {
      legal[i] = snap.is_legal_path(probes[i].path) ? 1 : 0;
      inside[i] = legal[i] != 0 && snap.path_input_space(probes[i].path)
                                       .contains(probes[i].header)
                      ? 1
                      : 0;
    }
  });
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> headers;
  std::vector<std::uint8_t> covered(
      static_cast<std::size_t>(snap.vertex_count()), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = std::string(where) + " probe " + std::to_string(i);
    c.gate.check(legal[i] != 0, id + ": path rejected by is_legal_path");
    c.gate.check(inside[i] != 0, id + ": header outside path_input_space");
    c.gate.check(headers.insert(probes[i].header).second,
                 id + ": duplicate header");
    for (const core::VertexId v : probes[i].path) {
      if (v >= 0 && static_cast<std::size_t>(v) < covered.size()) {
        covered[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  std::size_t missed = 0;
  for (core::VertexId v = 0; v < snap.vertex_count(); ++v) {
    if (snap.is_active(v) && !covered[static_cast<std::size_t>(v)]) ++missed;
  }
  c.gate.check(missed == 0, std::string(where) + ": cover misses " +
                                std::to_string(missed) + " active vertices");
}

// Probes whose packet, on the way to its own terminal, carries exactly the
// header another probe's test point waits for at a shared entry. The probe
// engine keeps injected headers unique (§VI), but set fields along a path
// can rewrite two different injected headers into the same one; the
// passing probe is then punted at the other's test point and fails in a
// fault-free network, so Algorithm 2 never goes quiet. Returns the indices
// of the probes that would be punted.
std::vector<std::size_t> terminal_collisions(
    const flow::RuleSet& rules, const std::vector<core::Probe>& probes) {
  std::unordered_map<flow::EntryId,
                     std::unordered_set<hsa::TernaryString,
                                        hsa::TernaryStringHash>>
      waiting;
  for (const core::Probe& q : probes) {
    waiting[q.terminal_entry].insert(q.expected_return);
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const core::Probe& p = probes[i];
    hsa::TernaryString h = p.header;
    for (std::size_t k = 0; k + 1 < p.entries.size(); ++k) {
      const auto it = waiting.find(p.entries[k]);
      if (it != waiting.end() && it->second.count(h) != 0) {
        out.push_back(i);
        break;
      }
      h = h.transform(rules.entry(p.entries[k]).set_field);
    }
  }
  return out;
}

// One FaultLocalizer episode, with the simulated time at which each switch
// was first flagged (from the per-round callback).
struct Episode {
  core::DetectionReport report;
  double wall_s = 0.0;
  std::map<flow::SwitchId, double> flagged_at_s;
};

Episode localize(const core::AnalysisSnapshot& snap, World& w,
                 const core::LocalizerConfig& lc,
                 const std::vector<core::Probe>* cover, Ctx& c) {
  Scope s(c.tr, "localizer.run");
  Episode ep;
  util::WallTimer timer;
  core::FaultLocalizer loc(snap, *w.ctrl, w.loop, lc);
  if (cover != nullptr) loc.set_cover_probes(*cover);
  ep.report = loc.run([&ep](const core::DetectionReport& r) {
    for (const flow::SwitchId sw : r.round_log.back().newly_flagged) {
      ep.flagged_at_s.emplace(sw, r.detection_time_s);
    }
    return false;
  });
  ep.wall_s = timer.elapsed_seconds();
  return ep;
}

// Scores one episode against its planted faults. A flag on a clean switch
// is a gate failure: the hunts only run where FPR = 0 is guaranteed
// (noiseless channel, or confirmation retries on a lossy one). Missed
// faults are counted, and reported as FNR.
void score(const Episode& ep, const std::vector<PlannedFault>& plan,
           int switch_count, Ctx& c, Counts* out) {
  std::set<flow::SwitchId> truth;
  for (const PlannedFault& f : plan) truth.insert(f.sw);
  std::uint64_t fp = 0;
  for (const flow::SwitchId sw : ep.report.flagged_switches) {
    if (truth.count(sw) == 0) {
      ++fp;
    } else {
      out->flagged_at_s.push_back(ep.flagged_at_s.at(sw));
    }
  }
  for (const flow::SwitchId sw : truth) {
    if (!ep.report.flagged(sw)) ++out->missed;
  }
  c.gate.check(fp == 0, "localization flagged " + std::to_string(fp) +
                            " clean switches");
  out->episodes += 1;
  out->probes_sent += ep.report.probes_sent + ep.report.retries_sent;
  out->faulty += truth.size();
  out->clean += static_cast<std::uint64_t>(switch_count) - truth.size();
  out->false_flags += fp;
  out->detail += "rounds=" + std::to_string(ep.report.rounds) + " ";
}

// ---------------------------------------------------------------------------
// Trace-only pieces.

// Reads what the library's telemetry registry exports for the traced
// repetition (counters, and the per-span duration histograms).
void capture_registry(Ctx& c) {
  auto& reg = telemetry::MetricsRegistry::global();
  auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  auto span_total_s = [&reg](const char* name) {
    const telemetry::Histogram& h = reg.histogram(name);
    return static_cast<double>(h.count()) * h.mean() * 1e-3;
  };
  auto& L = c.layer;
  L["hsa.input_space_calls"] =
      static_cast<double>(reg.histogram("flow.input_space.cubes").count());
  L["mlpc.solve_s"] = span_total_s("span.mlpc.solve.wall_ms");
  L["mlpc.solves"] = counter("mlpc.solves");
  L["mlpc.search_budget_consumed"] = counter("mlpc.search_budget_consumed");
  L["probe_engine.make_probes_s"] =
      span_total_s("span.probe_engine.make_probes.wall_ms");
  L["probe_engine.candidate_yield"] =
      ratio(counter("probe_engine.headers_committed"),
            counter("probe_engine.header_candidates"));
  L["probe_engine.headers_by_sat"] = counter("probe_engine.sat_fallbacks");
  L["sat.session.queries"] = counter("sat.session.queries");
  const telemetry::Histogram& rounds =
      reg.histogram("span.localizer.round.wall_ms");
  L["localizer.rounds"] = static_cast<double>(rounds.count());
  L["localizer.round_ms_p50"] = rounds.quantile(0.5);
  L["localizer.retries_sent"] = counter("localizer.retries_sent");
  L["localizer.retry_yield"] = ratio(counter("localizer.retry_recoveries"),
                                     counter("localizer.retries_sent"));
  L["localizer.probe_timeouts"] = counter("localizer.probe_timeouts");
  L["dataplane.packet_outs"] = counter("dataplane.packet_outs");
  L["dataplane.packets_forwarded"] = counter("dataplane.packets_forwarded");
  L["dataplane.packet_ins"] = counter("dataplane.packet_ins");
  L["channel.link_drops"] = counter("channel.link_drops");
  L["channel.control_drops"] = counter("channel.control_drops");
  L["repair.patches_proposed"] = counter("repair.patches_proposed");
  L["repair.patches_rolled_back"] = counter("repair.patches_rolled_back");
  L["repair.verify_reruns"] = counter("repair.verify_reruns");
  L["shard.covers_solved"] = counter("shard.covers_solved");
}

// Re-injects a probe set through Controller::send_packets + EventLoop::run
// on a fresh world (same channel config), timing the dataplane per probe.
void measure_injection(const flow::RuleSet& rules,
                       const dataplane::NetworkConfig& nc,
                       const std::vector<core::Probe>& probes, Ctx& c) {
  auto w = make_world(rules, nc, c.tr);
  std::vector<dataplane::BatchPacketOut> batch;
  batch.reserve(probes.size());
  const double gap_s = 64.0 / 250e3;  // the localizer's default probe rate
  for (std::size_t i = 0; i < probes.size(); ++i) {
    dataplane::BatchPacketOut item;
    item.sw = probes[i].inject_switch;
    item.packet.header = probes[i].header;
    item.packet.probe_id = i + 1;
    item.send_at = static_cast<double>(i) * gap_s;
    batch.push_back(std::move(item));
  }
  util::WallTimer timer;
  {
    Scope s(c.tr, "dataplane.inject");
    w->ctrl->send_packets(std::move(batch));
    w->loop.run();
  }
  c.layer["dataplane.inject_us_per_probe"] =
      ratio(timer.elapsed_micros(), static_cast<double>(probes.size()));
}

// The cover must not depend on the thread count: re-solve single-threaded
// and compare fingerprints.
void check_thread_determinism(const ColdCover& cc, Ctx& c) {
  core::Cover serial;
  {
    Scope s(c.tr, "check.thread_determinism");
    core::MlpcConfig mc;
    mc.common.threads = 1;
    serial = core::MlpcSolver(mc, nullptr).solve(*cc.snap);
  }
  const bool same = cover_fingerprint(serial) == cover_fingerprint(cc.cover);
  c.gate.check(same, "cover differs between 1 and " +
                         std::to_string(c.opt.threads) + " threads");
  c.layer["determinism.cover_threads_match"] = same ? 1.0 : 0.0;
}

// ---------------------------------------------------------------------------
// The two fault hunts. One repetition synthesizes the network, builds the
// cold cover (Table II PCT), checks it, and runs one localization episode
// against the repetition's seeded fault plan. Repetition i uses plan
// i mod `plans`, so a run cycles through a fixed set of plans.
//
// table2_topo3: Table II preset 3, noiseless channel, deterministic SDNProbe
// over the precomputed cover, 5 basic faults per plan.
// lossy_intermittent: 10k rules on a lossy, jittery channel; randomized
// SDNProbe with confirmation retries hunting 6 drops, half intermittent.

struct HuntSpec {
  NetSpec net;
  bool lossy = false;
  int plans = 1;
  std::size_t faults = 5;
  FaultKinds kinds = FaultKinds::kBasic;
  std::size_t intermittent = 0;
};

dataplane::NetworkConfig network_config(const HuntSpec& h,
                                        std::uint64_t seed) {
  dataplane::NetworkConfig nc;
  if (h.lossy) {
    nc.channel.link_loss = 0.01;
    nc.channel.control_loss = 0.005;
    nc.channel.link_jitter_s = 1e-3;
    nc.channel.seed = stream_seed(seed, kChannel);
  }
  return nc;
}

core::LocalizerConfig localizer_config(const HuntSpec& h, std::uint64_t seed,
                                       int plan, int threads) {
  core::LocalizerConfig lc;
  lc.common.threads = threads;
  lc.common.seed = util::Rng::derive(stream_seed(seed, kLocalizer),
                                     static_cast<std::uint64_t>(plan));
  // Host wall time charged to the simulated clock would make sim-time
  // results depend on machine speed; keep the clocks separate.
  lc.charge_generation_time = false;
  if (h.lossy) {
    lc.common.randomized = true;
    lc.confirm_retries = 2;
    lc.adaptive_timeout = true;
    lc.quiet_full_rounds_to_stop = 8;
  }
  return lc;
}

Counts hunt_rep(Ctx& c, Samples& s, const HuntSpec& h, int rep) {
  const int plan_index = rep % h.plans;
  const dataplane::NetworkConfig nc = network_config(h, c.opt.seed);
  util::WallTimer setup_timer;
  flow::RuleSet rules = generate_rules(h.net, c.tr);
  std::unique_ptr<World> world = make_world(rules, nc, c.tr);
  s.setup_s.push_back(setup_timer.elapsed_seconds());

  ColdCover cc = build_cover(rules, c);
  s.pct_s.push_back(cc.pct_s);
  check_probe_set(*cc.snap, cc.probes, c, "cold cover");
  // The deterministic hunt reuses this cover every full round; hand it over
  // without the probes a terminal collision would fail in every round.
  std::vector<core::Probe> handed;
  std::vector<std::size_t> clash;
  {
    Scope k(c.tr, "check.terminal_collisions");
    clash = terminal_collisions(rules, cc.probes);
    handed.reserve(cc.probes.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < cc.probes.size(); ++i) {
      if (next < clash.size() && clash[next] == i) {
        ++next;
      } else {
        handed.push_back(cc.probes[i]);
      }
    }
  }

  std::vector<PlannedFault> plan;
  {
    Scope g(c.tr, "gen.faults");
    util::Rng rng(util::Rng::derive(stream_seed(c.opt.seed, kFaults),
                                    static_cast<std::uint64_t>(plan_index)));
    plan = plan_faults(*cc.snap, h.faults, h.kinds, h.intermittent, rng);
    for (const PlannedFault& f : plan) {
      world->net->faults().add_fault(f.entry, f.spec);
    }
  }
  const Episode ep =
      localize(*cc.snap, *world,
               localizer_config(h, c.opt.seed, plan_index, c.opt.threads),
               h.lossy ? nullptr : &handed, c);
  s.localize_s[plan_index].push_back(ep.wall_s);

  Counts out;
  out.tpc = cc.probes.size();
  out.collisions = clash.size();
  out.detail = "cover=" + std::to_string(cover_fingerprint(cc.cover)) + " ";
  score(ep, plan, rules.switch_count(), c, &out);

  if (c.traced) {
    c.layer["rule_graph.vertices"] = cc.graph->vertex_count();
    c.layer["rule_graph.edges"] = static_cast<double>(cc.graph->edge_count());
    c.layer["controller.flowmods"] =
        static_cast<double>(world->ctrl->flowmod_count());
    capture_registry(c);
    measure_injection(rules, nc, cc.probes, c);
    check_thread_determinism(cc, c);
  }
  Scope t(c.tr, "bench.teardown");
  cc = ColdCover{};
  world.reset();
  return out;
}

// Fault plans each hunt cycles through (its determinism period).
constexpr int kTable2Plans = 2;
constexpr int kLossyPlans = 20;

Counts table2_rep(Ctx& c, Samples& s, int rep) {
  HuntSpec h;
  h.net = topo3_spec();
  h.plans = kTable2Plans;
  h.faults = 5;
  h.kinds = FaultKinds::kBasic;
  return hunt_rep(c, s, h, rep);
}

Counts lossy_rep(Ctx& c, Samples& s, int rep) {
  HuntSpec h;
  h.net = kTenK;
  h.lossy = true;
  h.plans = kLossyPlans;
  h.faults = 6;
  h.kinds = FaultKinds::kDrop;
  h.intermittent = 3;
  return hunt_rep(c, s, h, rep);
}

// ---------------------------------------------------------------------------
// Workload: monitor_steady — the continuous-monitoring service under churn,
// with a drop fault injected (and healed) every kFaultEvery batches.

constexpr int kBatches = 200;
constexpr int kInstallsPerBatch = 4;
constexpr int kRemovalsPerBatch = 2;
constexpr int kFaultEvery = 50;
constexpr int kFaultPhase = 25;  // first fault after this many batches
constexpr int kMonitorSetups = 3;

// Seeded churn over live entries: installs come from a spare ruleset in
// order; removals draw distinct entries that are live when the batch is
// generated (faults are injected and healed between batches, so no churn op
// ever touches a faulty entry).
class ChurnGen {
 public:
  ChurnGen(const flow::RuleSet& rules, std::uint64_t seed)
      : rng_(stream_seed(seed, kChurn)) {
    flow::SynthesizerConfig sc;
    sc.target_entry_count = kBatches * kInstallsPerBatch + 200;
    sc.seed = stream_seed(seed, kSpareRules);
    spare_ = flow::synthesize_ruleset(rules.topology(), sc);
  }

  void enqueue_batch(const flow::RuleSet& live, monitor::Monitor& mon) {
    for (int k = 0; k < kInstallsPerBatch; ++k) {
      flow::FlowEntry e = spare_.entry(static_cast<flow::EntryId>(
          next_install_++ % spare_.entry_count()));
      e.id = -1;
      mon.enqueue(monitor::ChurnOp::install(std::move(e)));
    }
    std::set<flow::EntryId> picked;
    while (picked.size() < static_cast<std::size_t>(kRemovalsPerBatch)) {
      const auto id = static_cast<flow::EntryId>(
          rng_.next_below(live.entry_count()));
      if (live.is_removed(id)) continue;
      if (picked.insert(id).second) {
        mon.enqueue(monitor::ChurnOp::remove(id));
      }
    }
  }

  // The entry of a uniformly drawn active vertex.
  flow::EntryId pick_fault(const core::AnalysisSnapshot& snap) {
    const auto vertices = static_cast<std::uint64_t>(snap.vertex_count());
    for (;;) {
      const auto v = static_cast<core::VertexId>(rng_.next_below(vertices));
      if (snap.is_active(v)) return snap.entry_of(v);
    }
  }

 private:
  util::Rng rng_;
  flow::RuleSet spare_;
  std::size_t next_install_ = 0;
};

// Everything one monitor run owns; members are destroyed in reverse order,
// so the repair engine and monitor go before the network and the rules.
struct MonitorRig {
  flow::RuleSet rules;
  std::unique_ptr<ChurnGen> churn;
  std::unique_ptr<World> world;
  std::unique_ptr<monitor::Monitor> mon;
  std::unique_ptr<repair::RepairEngine> healer;
};

std::unique_ptr<MonitorRig> build_monitor_rig(Ctx& c) {
  auto rig = std::make_unique<MonitorRig>();
  rig->rules = generate_rules(kTenK, c.tr);
  {
    Scope g(c.tr, "flow.synthesize_spare");
    rig->churn = std::make_unique<ChurnGen>(rig->rules, c.opt.seed);
  }
  rig->world = make_world(rig->rules, dataplane::NetworkConfig{}, c.tr);
  monitor::MonitorConfig mc;
  mc.common.threads = c.opt.threads;
  mc.common.seed = stream_seed(c.opt.seed, kMonitor);
  mc.incremental_repair = true;
  mc.verify_invariants = true;
  mc.invariants = analysis::InvariantSet::builtin();
  mc.localizer.charge_generation_time = false;
  {
    Scope m(c.tr, "monitor.construct");
    rig->mon = std::make_unique<monitor::Monitor>(
        rig->rules, *rig->world->ctrl, rig->world->loop, mc);
    const double verify_us = rig->mon->verify_summary().last_verify_ms * 1e3;
    const double end = c.tr.now_us();
    c.tr.add_child("verifier.verify", end - verify_us, end);
  }
  repair::RepairConfig rc;
  rc.invariants = analysis::InvariantSet::builtin();
  rc.confirm.charge_generation_time = false;
  rc.common.seed = stream_seed(c.opt.seed, kRepair);
  rig->healer = std::make_unique<repair::RepairEngine>(
      *rig->mon, *rig->world->ctrl, rig->world->loop, rc);
  return rig;
}

Counts monitor_rep(Ctx& c, Samples& s, int /*rep*/) {
  std::unique_ptr<MonitorRig> rig;
  for (int i = 0; i < kMonitorSetups; ++i) {
    {
      Scope t(c.tr, "bench.teardown");
      rig.reset();
    }
    util::WallTimer timer;
    rig = build_monitor_rig(c);
    s.setup_s.push_back(timer.elapsed_seconds());
  }
  flow::RuleSet& rules = rig->rules;
  monitor::Monitor& mon = *rig->mon;

  Counts out;
  out.tpc = mon.probes().size();
  out.collisions = terminal_collisions(rules, mon.probes()).size();
  check_probe_set(*mon.snapshot(), mon.probes(), c, "monitor epoch 1");
  const monitor::ChurnStats churn0 = mon.churn_stats();
  const monitor::VerifySummary verify0 = mon.verify_summary();

  std::vector<double> drain_ms;
  std::vector<double> round_ms;
  std::vector<double> heal_s;
  for (int b = 0; b < kBatches; ++b) {
    const std::string batch = "batch " + std::to_string(b) + ": ";
    {
      Scope g(c.tr, "gen.churn");
      rig->churn->enqueue_batch(rules, mon);
    }
    const monitor::ChurnStats before = mon.churn_stats();
    {
      Scope d(c.tr, "monitor.drain_churn");
      util::WallTimer timer;
      mon.drain_churn();
      drain_ms.push_back(timer.elapsed_millis());
      const double verify_us = mon.verify_summary().last_verify_ms * 1e3;
      const double end = c.tr.now_us();
      c.tr.add_child("verifier.apply_delta", end - verify_us, end);
    }
    {
      Scope k(c.tr, "check.churn");
      const monitor::ChurnStats& after = mon.churn_stats();
      c.gate.check(after.installs - before.installs == kInstallsPerBatch &&
                       after.removals - before.removals == kRemovalsPerBatch,
                   batch + "drain skipped churn ops");
      c.gate.check(mon.status().coverage_fraction == 1.0,
                   batch + "coverage below 1.0");
    }

    flow::SwitchId faulty_sw = -1;
    if (b % kFaultEvery == kFaultPhase) {
      Scope g(c.tr, "gen.faults");
      const flow::EntryId e = rig->churn->pick_fault(*mon.snapshot());
      faulty_sw = rules.entry(e).switch_id;
      rig->world->net->faults().add_fault(e, dataplane::FaultSpec::Drop());
    }
    {
      Scope r(c.tr, "monitor.run_round");
      util::WallTimer timer;
      mon.run_round();
      round_ms.push_back(timer.elapsed_millis());
    }
    const monitor::MonitorRound& round = mon.report().round_log.back();
    out.episodes += 1;
    out.probes_sent += mon.last_detection().probes_sent +
                       mon.last_detection().retries_sent;
    out.clean += static_cast<std::uint64_t>(rules.switch_count()) -
                 (faulty_sw >= 0 ? 1 : 0);
    bool caught = false;
    for (const flow::SwitchId sw : round.newly_flagged) {
      if (sw == faulty_sw) {
        caught = true;
      } else {
        ++out.false_flags;
      }
    }
    c.gate.check(round.newly_flagged.size() == (caught ? 1u : 0u),
                 batch + "flagged a clean switch");
    if (faulty_sw < 0) continue;
    out.faulty += 1;
    c.gate.check(caught, batch + "drop fault on switch " +
                             std::to_string(faulty_sw) + " not flagged");
    if (!caught) {
      out.missed += 1;
      continue;
    }

    out.flagged_at_s.push_back(mon.last_detection().detection_time_s);
    repair::RepairOutcome healed;
    {
      Scope h(c.tr, "repair.heal");
      util::WallTimer timer;
      healed = rig->healer->heal(faulty_sw);
      heal_s.push_back(timer.elapsed_seconds());
    }
    c.gate.check(healed.healed && !healed.quarantined,
                 batch + "heal of switch " + std::to_string(faulty_sw) +
                     " did not heal");
    c.gate.check(mon.status().coverage_fraction == 1.0,
                 batch + "coverage below 1.0 after heal");
    check_probe_set(*mon.snapshot(), mon.probes(), c, "monitor after heal");
    out.detail += "heal" + std::to_string(b) + "=" +
                  std::to_string(healed.patches_proposed) + "/" +
                  std::to_string(healed.attempts.size()) + " ";
  }
  check_probe_set(*mon.snapshot(), mon.probes(), c, "monitor final");
  s.drain_ms.insert(s.drain_ms.end(), drain_ms.begin(), drain_ms.end());
  s.round_ms.insert(s.round_ms.end(), round_ms.begin(), round_ms.end());
  s.heal_s.insert(s.heal_s.end(), heal_s.begin(), heal_s.end());
  // The monitor keeps its probe set current incrementally: its PCT is the
  // per-batch epoch repair, and each round is one localization episode.
  // One sample per repetition, the mean over its batches (see Samples).
  s.pct_s.push_back(mean(drain_ms) * 1e-3);
  s.localize_s[0].push_back(mean(round_ms) * 1e-3);
  out.detail += "probes=" + std::to_string(mon.probes().size()) +
                " epoch=" + std::to_string(mon.epoch());

  if (c.traced) {
    const monitor::ChurnStats& cs = mon.churn_stats();
    const monitor::VerifySummary& vs = mon.verify_summary();
    const auto snap = mon.snapshot();
    auto& L = c.layer;
    L["rule_graph.vertices"] = snap->vertex_count();
    L["rule_graph.edges"] = static_cast<double>(snap->graph().edge_count());
    L["controller.flowmods"] =
        static_cast<double>(rig->world->ctrl->flowmod_count());
    L["monitor.drain_ms_p50"] = median(drain_ms);
    L["monitor.drain_ms_p95"] = quantile(drain_ms, 0.95);
    L["monitor.round_ms_p50"] = median(round_ms);
    L["monitor.round_ms_p95"] = quantile(round_ms, 0.95);
    L["monitor.repair_ms"] =
        ratio(cs.total_repair_ms - churn0.total_repair_ms,
              static_cast<double>(cs.batches - churn0.batches));
    const double kept =
        static_cast<double>(cs.probes_kept - churn0.probes_kept);
    const double regen = static_cast<double>(cs.probes_regenerated -
                                             churn0.probes_regenerated);
    L["monitor.probes_kept_ratio"] = ratio(kept, kept + regen);
    L["verifier.delta_ms"] =
        ratio(vs.total_verify_ms - verify0.total_verify_ms,
              static_cast<double>(vs.runs - verify0.runs));
    const double reused =
        static_cast<double>(vs.classes_reused - verify0.classes_reused);
    const double verified =
        static_cast<double>(vs.classes_verified - verify0.classes_verified);
    L["verifier.class_reuse_ratio"] = ratio(reused, reused + verified);
    L["repair.heal_s"] = median(heal_s);
    capture_registry(c);
    measure_injection(rules, dataplane::NetworkConfig{}, mon.probes(), c);
    // Thread-count determinism of a cold cover over the churned ruleset;
    // untraced, so the monitor's layers show only its steady state.
    c.tr.set_enabled(false);
    const ColdCover cc = build_cover(rules, c);
    c.tr.set_enabled(true);
    check_thread_determinism(cc, c);
  }
  Scope t(c.tr, "bench.teardown");
  rig.reset();
  return out;
}

// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  Counts (*rep)(Ctx&, Samples&, int);
  // Repetitions whose summed counts are reported; repetition i repeats the
  // inputs of repetition i - period exactly.
  int period;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"table2_topo3", &table2_rep, kTable2Plans},
      {"lossy_intermittent", &lossy_rep, kLossyPlans},
      {"monitor_steady", &monitor_rep, 1},
  };
  return defs;
}

// Layers whose self time the trace reports, in pipeline order. The leaf
// layers topo, flow, rule_graph and snapshot have no child spans; their
// *.generate_s / *.synthesize_s / *.build_s below are their self times, so
// all of these together add up to trace.wall_s.
const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "dataplane", "controller", "mlpc",   "probe_engine", "localizer",
      "monitor",   "verifier",   "repair", "gen",          "check",
      "bench"};
  return layers;
}

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics reported by every traced run (0 where a layer does no
// work on the workload), after the per-layer self times.
const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"topo.generate_s", "s"},
      {"flow.synthesize_s", "s"},
      {"rule_graph.build_s", "s"},
      {"rule_graph.vertices", "count"},
      {"rule_graph.edges", "count"},
      {"hsa.input_space_calls", "count"},
      {"snapshot.build_s", "s"},
      {"mlpc.solve_s", "s"},
      {"mlpc.solves", "count"},
      {"mlpc.search_budget_consumed", "count"},
      {"probe_engine.make_probes_s", "s"},
      {"probe_engine.candidate_yield", "ratio"},
      {"probe_engine.headers_by_sat", "count"},
      {"probe_engine.terminal_collisions", "count"},
      {"sat.session.queries", "count"},
      {"localizer.rounds", "count"},
      {"localizer.round_ms_p50", "ms"},
      {"localizer.retries_sent", "count"},
      {"localizer.retry_yield", "ratio"},
      {"localizer.probe_timeouts", "count"},
      {"localizer.fnr", "ratio"},
      {"localizer.fpr", "ratio"},
      {"dataplane.packet_outs", "count"},
      {"dataplane.packets_forwarded", "count"},
      {"dataplane.packet_ins", "count"},
      {"channel.link_drops", "count"},
      {"channel.control_drops", "count"},
      {"dataplane.inject_us_per_probe", "us"},
      {"controller.flowmods_per_round", "count"},
      {"monitor.drain_ms_p50", "ms"},
      {"monitor.drain_ms_p95", "ms"},
      {"monitor.round_ms_p50", "ms"},
      {"monitor.round_ms_p95", "ms"},
      {"monitor.repair_ms", "ms"},
      {"monitor.probes_kept_ratio", "ratio"},
      {"verifier.delta_ms", "ms"},
      {"verifier.class_reuse_ratio", "ratio"},
      {"repair.heal_s", "s"},
      {"repair.patches_proposed", "count"},
      {"repair.patches_rolled_back", "count"},
      {"repair.verify_reruns", "count"},
      {"shard.covers_solved", "count"},
      {"determinism.cover_threads_match", "bool"},
      {"trace.wall_s", "s"},
      {"trace.overhead_pct_s", "s"},
      {"trace.overhead_localize_s", "s"},
  };
  return specs;
}

// Sums the counts of one period of repetitions.
Counts sum_period(const std::vector<Counts>& counts, int period) {
  Counts total;
  total.tpc = counts.front().tpc;
  total.collisions = counts.front().collisions;
  for (int i = 0; i < period; ++i) {
    const Counts& c = counts[static_cast<std::size_t>(i)];
    total.episodes += c.episodes;
    total.probes_sent += c.probes_sent;
    total.faulty += c.faulty;
    total.missed += c.missed;
    total.clean += c.clean;
    total.false_flags += c.false_flags;
    total.flagged_at_s.insert(total.flagged_at_s.end(),
                              c.flagged_at_s.begin(), c.flagged_at_s.end());
  }
  return total;
}

// The traced repetition's per-layer table and metrics, plus its trace files.
void report_layers(const WorkloadDef& def, const Options& opt, int root,
                   const Samples& traced, const Samples& untraced,
                   const Counts& counts, Ctx& c, Outcome& o) {
  const Span& root_span = c.tr.spans().at(static_cast<std::size_t>(root));
  const double wall_s = (root_span.end_us - root_span.start_us) * 1e-6;
  const auto totals = c.tr.layer_totals();
  auto busy = [&totals](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.busy_s;
  };
  auto& L = c.layer;
  L["topo.generate_s"] = busy("topo");
  L["flow.synthesize_s"] = busy("flow");
  L["rule_graph.build_s"] = busy("rule_graph");
  L["snapshot.build_s"] = busy("snapshot");
  L["probe_engine.terminal_collisions"] =
      static_cast<double>(counts.collisions);
  L["localizer.fnr"] = ratio(static_cast<double>(counts.missed),
                             static_cast<double>(counts.faulty));
  L["localizer.fpr"] = ratio(static_cast<double>(counts.false_flags),
                             static_cast<double>(counts.clean));
  L["controller.flowmods_per_round"] =
      ratio(L["controller.flowmods"], L["localizer.rounds"]);
  L["trace.wall_s"] = wall_s;
  L["trace.overhead_pct_s"] = traced.pct() - untraced.pct();
  L["trace.overhead_localize_s"] = traced.localize() - untraced.localize();

  double self_sum = 0.0;
  for (const auto& [layer, t] : totals) self_sum += t.self_s;
  o.gate.check(std::fabs(self_sum - wall_s) <= 1e-6 * wall_s + 1e-6,
               "layer self times do not add up to the traced wall time");

  o.report.push_back("per-layer (traced repetition, " + fmt("%.3f", wall_s) +
                     " s):");
  o.report.push_back("  layer           spans     busy_s     self_s   share");
  for (const auto& [layer, t] : totals) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-14s %6llu %10.4f %10.4f %6.1f%%",
                  layer.c_str(), static_cast<unsigned long long>(t.count),
                  t.busy_s, t.self_s, 100.0 * ratio(t.self_s, wall_s));
    o.report.push_back(buf);
  }
  for (const std::string& layer : traced_layers()) {
    const auto it = totals.find(layer);
    o.per_layer.push_back(Metric{
        layer + ".self_s", it == totals.end() ? 0.0 : it->second.self_s, "s"});
  }
  for (const LayerSpec& spec : layer_specs()) {
    o.per_layer.push_back(Metric{spec.name, L[spec.name], spec.unit});
  }

  const std::string stem =
      opt.out_dir + "/" + def.name + "-seed" + std::to_string(opt.seed);
  o.gate.check(c.tr.write_chrome_trace(stem + ".trace.json", def.name),
               "could not write " + stem + ".trace.json");
  if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
    for (const std::string& line : o.report) {
      std::fprintf(f, "%s\n", line.c_str());
    }
    for (const Metric& m : o.per_layer) {
      std::fprintf(f, "%-36s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::fclose(f);
  }
  o.report.push_back("trace: " + stem + ".trace.json (chrome://tracing), " +
                     stem + ".layers.txt");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& d : workload_defs()) v.emplace_back(d.name);
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& opt) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : workload_defs()) {
    if (opt.workload == d.name) def = &d;
  }
  if (def == nullptr) {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }

  Outcome o;
  Ctx c{opt, o.gate, Tracer{}, nullptr, false, {}};
  c.tr.set_workload(static_cast<int>(def - workload_defs().data()));
  if (opt.threads > 1) {
    c.pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(opt.threads));
  }
  auto& registry = telemetry::MetricsRegistry::global();
  registry.set_enabled(false);

  Samples samples;
  std::vector<Counts> counts;
  int period = def->period;
  if (!opt.trace) {
    // Closed loop, one client: repeat the workload for the measuring
    // window, and at least one full period. A repetition starts only while
    // half of one still fits, so a run overshoots the window by at most
    // half a repetition. Every repetition re-runs setup too, so setup
    // samples spread over the whole run.
    util::WallTimer total;
    for (int rep = 0;; ++rep) {
      const double elapsed = total.elapsed_seconds();
      if (rep >= period && elapsed * (1.0 + 0.5 / rep) >= opt.seconds) break;
      counts.push_back(def->rep(c, samples, rep));
    }
  } else {
    // Repetition 0 untraced (the overhead baseline), then repetition 0
    // again with tracing on; its spans and registry values give the
    // per-layer numbers.
    period = 1;
    Samples untraced;
    counts.push_back(def->rep(c, untraced, 0));
    registry.reset();
    registry.set_enabled(true);
    c.tr.set_enabled(true);
    c.traced = true;
    const int root = c.tr.open(std::string("bench.") + def->name);
    counts.push_back(def->rep(c, samples, 0));
    c.tr.close(root);
    c.tr.set_enabled(false);
    registry.set_enabled(false);
    report_layers(*def, opt, root, samples, untraced, counts.back(), c, o);
  }

  // Determinism: every repetition reproduces the one a period earlier.
  for (std::size_t i = static_cast<std::size_t>(period); i < counts.size();
       ++i) {
    o.gate.check(counts[i].render() == counts[i - period].render(),
                 "repetition " + std::to_string(i) + " differs from " +
                     std::to_string(i - period) + ": " + counts[i].render() +
                     " vs " + counts[i - period].render());
  }
  const Counts sum = sum_period(counts, period);
  o.fingerprint = sum.render();
  for (int i = 0; i < period; ++i) {
    o.fingerprint += " | " + counts[static_cast<std::size_t>(i)].detail;
  }

  const double setup_s = median(samples.setup_s);
  const double pct_s = samples.pct();
  const double localize_s = samples.localize();
  const double detect_sim_s = median(sum.flagged_at_s);
  const double probes_sent = ratio(static_cast<double>(sum.probes_sent),
                                   static_cast<double>(sum.episodes));
  const double fnr = ratio(static_cast<double>(sum.missed),
                           static_cast<double>(sum.faulty));
  const double fpr = ratio(static_cast<double>(sum.false_flags),
                           static_cast<double>(sum.clean));
  const double rss = peak_rss_mb();
  o.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"pct_s", pct_s, "s"},
      {"tpc", static_cast<double>(sum.tpc), "probes"},
      {"localize_s", localize_s, "s"},
      {"detect_sim_s", detect_sim_s, "sim_s"},
      {"probes_sent", probes_sent, "probes"},
      {"peak_rss_mb", rss, "MB"},
  };

  // The full metric sheet, including the metrics that exist only on the
  // monitor (n/a elsewhere) and the ones kept out of the result line.
  const bool is_monitor = std::string(def->name) == "monitor_steady";
  auto monitor_only = [is_monitor](const std::string& v) {
    return is_monitor ? v : std::string("n/a");
  };
  o.report.push_back("workload " + std::string(def->name) + "  seed " +
                     std::to_string(opt.seed) + "  threads " +
                     std::to_string(opt.threads) + "  repetitions " +
                     std::to_string(counts.size()) + "  episodes " +
                     std::to_string(sum.episodes));
  const std::vector<std::array<std::string, 3>> sheet = {
      {"setup_s", "s", fmt("%.4f", setup_s)},
      {"pct_s", "s",
       fmt("%.4f", pct_s) + (is_monitor ? "  (mean drain_churn)" : "")},
      {"tpc", "probes", std::to_string(sum.tpc)},
      {"localize_s", "s",
       fmt("%.4f", localize_s) + (is_monitor ? "  (mean run_round)" : "")},
      {"detect_sim_s", "sim_s", fmt("%.4f", detect_sim_s)},
      {"probes_sent", "probes", fmt("%.1f", probes_sent)},
      {"fnr", "ratio", fmt("%.4f", fnr)},
      {"fpr", "ratio", fmt("%.4f", fpr)},
      {"drain_ms_p50", "ms",
       monitor_only(fmt("%.3f", median(samples.drain_ms)))},
      {"drain_ms_p95", "ms",
       monitor_only(fmt("%.3f", quantile(samples.drain_ms, 0.95)))},
      {"round_ms_p50", "ms",
       monitor_only(fmt("%.3f", median(samples.round_ms)))},
      {"round_ms_p95", "ms",
       monitor_only(fmt("%.3f", quantile(samples.round_ms, 0.95)))},
      {"heal_s", "s", monitor_only(fmt("%.4f", median(samples.heal_s)))},
      {"peak_rss_mb", "MB", fmt("%.1f", rss)},
      {"collisions", "probes",
       std::to_string(sum.collisions) +
           "  (cover probes punted at another probe's test point)"},
  };
  for (const auto& row : sheet) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-14s %-7s %s", row[0].c_str(),
                  row[1].c_str(), row[2].c_str());
    o.report.push_back(buf);
  }
  if (is_monitor) {
    o.report.push_back("  (" + std::to_string(samples.drain_ms.size()) +
                       " drain / round samples, " +
                       std::to_string(samples.heal_s.size()) + " heals)");
  }
  return o;
}

}  // namespace pipebench

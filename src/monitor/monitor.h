// Continuous monitoring service: the analysis lifecycle owner (§VIII-C).
//
// The paper evaluates SDNProbe as a one-shot pipeline — build the rule
// graph, solve MLPC, construct probes, run Algorithm 2. A deployed
// controller runs it *continuously*: policy entries are installed and
// removed while detection rounds execute, so someone must own the loop of
// (apply churn) -> (repair analysis state) -> (run a round). That owner is
// monitor::Monitor.
//
// Epoch model. The monitor maintains the one mutable RuleGraph in the
// process and mutates it only between rounds, via the incremental updates
// of §VIII-C (RuleGraph::apply_entry_added / apply_entry_removed). Every
// analysis consumer — MLPC, probe construction, FaultLocalizer — reads an
// immutable core::AnalysisSnapshot instead. Draining a churn batch ends with
// an epoch swap: the working graph is copied into a fresh owning snapshot
// (AnalysisSnapshot::adopt) and the epoch counter bumps. Readers holding
// the previous epoch's shared_ptr keep a consistent view for as long as
// they need it; nobody ever observes a half-mutated graph.
//
// Probe repair. Vertex slots are stable across churn (see
// RuleGraph::apply_entry_removed), so a probe whose tested path avoids
// every vertex touched by the batch is still legal and its header still
// traverses — it is kept verbatim. Only the uncovered remainder (touched
// vertices plus vertices of dropped probes) gets fresh greedy cover paths
// and new unique headers. Incremental repair therefore costs O(affected
// region), not O(network), which is the point of this subsystem (see
// bench/bench_monitor_churn.cc for the measured gap vs. full
// regeneration).
//
// Invariant verification. With MonitorConfig::verify_invariants the monitor
// owns an analysis::Verifier and runs it at every epoch swap: a full verify
// over epoch 1, then VeriFlow-style incremental re-verification
// (Verifier::apply_delta over the batch's touched vertices) for each churn
// batch — so every epoch any reader can observe has a matching invariant
// verdict (last_verify_report()). Verification runs outside the repair
// timing; ChurnStats keeps measuring repair alone.
//
// Determinism. The monitor runs serially: repair is index-ordered, and
// full regeneration and localization borrow no thread pool. Round r of
// epoch e always draws the same derived RNG streams, so a monitor run's
// report fingerprint is reproducible from run to run
// (tests/parallel_determinism_test.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "analysis/verifier.h"
#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/localizer.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "flow/ruleset.h"
#include "sim/event_loop.h"
#include "util/timer.h"

namespace sdnprobe::monitor {

// One queued control-plane change. Installs carry the full entry (the
// monitor assigns its EntryId on apply); removals carry the id to retire.
struct ChurnOp {
  enum class Kind { kInstall, kRemove };

  static ChurnOp install(flow::FlowEntry entry) {
    ChurnOp op;
    op.kind = Kind::kInstall;
    op.entry = std::move(entry);
    return op;
  }
  static ChurnOp remove(flow::EntryId id) {
    ChurnOp op;
    op.kind = Kind::kRemove;
    op.remove_id = id;
    return op;
  }

  Kind kind = Kind::kInstall;
  flow::FlowEntry entry;          // kInstall
  flow::EntryId remove_id = -1;   // kRemove
};

// One op as it was actually applied by drain_churn(): the resolved EntryId
// (installs get theirs assigned at apply time) and the full entry as it
// stood at apply time — everything needed to construct the exact inverse
// FlowMod. Ops the drain skipped (double removals, unknown ids) are not
// recorded.
struct AppliedOp {
  ChurnOp::Kind kind = ChurnOp::Kind::kInstall;
  flow::EntryId id = -1;
  flow::FlowEntry entry;  // the installed entry / the entry that was removed
};

// The record of one drained churn batch, kept for rollback: `epoch` is the
// epoch the batch produced.
struct ChurnLog {
  std::uint64_t epoch = 0;
  std::vector<AppliedOp> applied;

  bool empty() const { return applied.empty(); }
};

// Applies `ops` in order to `rules` and the rule graph maintained over it:
// an install adds its entry under a fresh EntryId, a removal retires its
// id, and a removal of an unknown or already removed id is skipped, like a
// real NBI. Appends each applied op to `applied` and returns every vertex
// the graph recomputed (RuleGraph's `touched`). The one routine that
// applies churn: Monitor::drain_churn runs it on the live world and mirrors
// the applied ops onto the data plane, and repair runs it on scratch copies.
std::vector<core::VertexId> apply_churn(std::span<const ChurnOp> ops,
                                        flow::RuleSet& rules,
                                        core::RuleGraph& graph,
                                        std::vector<AppliedOp>& applied);

struct MonitorConfig {
  // Simulated seconds between scheduled monitoring rounds.
  double round_period_s = 1.0;
  // Shared knobs. `randomized` must stay false: incremental
  // probe repair maintains a fixed cover, which is the deterministic
  // variant by definition.
  core::CommonOptions common;
  // Per-round localizer knobs. `common` inside it is overwritten each
  // round (seed derived per round, deterministic: the round reuses the
  // monitor's cover, so the localizer generates none), so
  // configure only the behavioral fields here.
  core::LocalizerConfig localizer;
  // false = rebuild the whole cover from scratch after every churn batch
  // (the baseline bench_monitor_churn compares against).
  bool incremental_repair = true;
  // Verify `invariants` at every epoch swap (analysis::Verifier, DESIGN.md
  // §14): a full verify at construction, then incremental apply_delta over
  // each churn batch's touched region. Off by default — verification adds
  // static-analysis cost to every batch, and churn benches/tests measure
  // repair alone.
  bool verify_invariants = false;
  analysis::InvariantSet invariants;
};

// Cumulative churn/repair accounting.
struct ChurnStats {
  std::uint64_t batches = 0;
  std::uint64_t installs = 0;
  std::uint64_t removals = 0;
  std::uint64_t probes_kept = 0;         // survived a batch verbatim
  std::uint64_t probes_regenerated = 0;  // newly built after a batch
  std::uint64_t probes_retired = 0;      // dropped: path hits a flagged switch
  double last_repair_ms = 0.0;
  double total_repair_ms = 0.0;
};

// Cumulative invariant-verification accounting (all zero unless
// MonitorConfig::verify_invariants). `violations` sums error diagnostics
// over runs; a persistent violation is counted once per epoch it survives.
struct VerifySummary {
  std::uint64_t runs = 0;
  std::uint64_t full_runs = 0;          // construction + any manual verify
  std::uint64_t classes_verified = 0;   // traversed
  std::uint64_t classes_reused = 0;     // delta-slicing cache hits
  std::uint64_t violations = 0;
  double last_verify_ms = 0.0;
  double total_verify_ms = 0.0;
};

// One completed monitoring round (one FaultLocalizer episode).
struct MonitorRound {
  std::uint64_t index = 0;  // 0-based monitor round number
  std::uint64_t epoch = 0;  // epoch the round ran against
  double start_s = 0.0;     // sim time
  double end_s = 0.0;
  std::size_t probes_sent = 0;
  std::size_t failures = 0;
  int localizer_rounds = 0;  // Algorithm-2 rounds inside the episode
  std::vector<flow::SwitchId> newly_flagged;
};

// Aggregate across every round since construction.
struct MonitorReport {
  std::vector<flow::SwitchId> flagged_switches;  // sorted, unique
  std::uint64_t rounds = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t failures = 0;
  std::vector<MonitorRound> round_log;
};

// Point-in-time health summary (the numbers the telemetry gauges mirror).
struct MonitorStatus {
  std::uint64_t epoch = 0;
  std::uint64_t rounds_run = 0;
  std::size_t probe_count = 0;
  std::size_t active_vertices = 0;
  std::size_t covered_vertices = 0;   // active vertices on some probe path
  double coverage_fraction = 0.0;     // covered / active (1.0 when no actives)
  double uptime_wall_s = 0.0;         // host wall clock since construction
  double uptime_sim_s = 0.0;          // sim clock since construction
  std::size_t pending_churn = 0;
  std::vector<flow::SwitchId> flagged_switches;
  // Error diagnostics in the latest epoch's verify report (0 when
  // verification is disabled).
  std::uint64_t invariant_violations = 0;
};

class Monitor {
 public:
  // `rules` is the authoritative RuleSet the controller/network were built
  // from; the monitor is its only mutator from here on (append entries,
  // tombstone removals). Construction builds epoch 1 and the initial full
  // cover; nothing is scheduled until start().
  Monitor(flow::RuleSet& rules, controller::Controller& ctrl,
          sim::EventLoop& loop, MonitorConfig config = {});

  ~Monitor();  // out-of-line: Instruments is complete only in monitor.cc

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // --- Churn ingestion. ---
  void enqueue(ChurnOp op) { pending_.push_back(std::move(op)); }
  std::size_t pending_churn() const { return pending_.size(); }

  // Applies every queued op as one batch *now*: mutates the RuleSet and
  // data plane, maintains the rule graph incrementally, swaps the epoch,
  // and repairs the probe set. Runs automatically at the start of each
  // round; callable directly for synchronous use (tests, examples).
  void drain_churn();

  // The record of the most recent drained batch (empty before any drain).
  const ChurnLog& last_churn() const { return last_churn_; }

  // The exact inverse of a drained batch, as a new op list: applied ops in
  // reverse order, installs undone by removals of their assigned ids,
  // removals undone by re-installing the saved entry verbatim (same
  // priority/match/set/action; the id is re-assigned, as all installs are).
  // Enqueue + drain the result to roll the batch back; the resulting
  // analysis snapshot is bit-identical to the pre-batch one up to entry-id
  // renaming (see core::canonical_fingerprint and tests/repair_test.cc).
  static std::vector<ChurnOp> invert(const ChurnLog& log);

  // --- Lifecycle. ---
  // Schedules periodic rounds every config.round_period_s on the event
  // loop. The next round is armed only after the previous one's episode
  // completed, so episodes never nest however long localization takes.
  void start();
  // Stops scheduling. Already-queued round events become no-ops (the
  // generation counter invalidates them); a later start() re-arms cleanly.
  void stop();
  bool running() const { return running_; }

  // Pausing gates round *execution* without disturbing the scheduling
  // chain: while paused, scheduled run_round() events return immediately
  // (the cadence keeps ticking and resumes cleanly on unpause). Used by
  // repair::RepairEngine so its confirm episodes — which advance the sim
  // clock — cannot interleave with a monitor episode on the same
  // controller.
  void set_paused(bool paused) { paused_ = paused; }
  bool paused() const { return paused_; }

  // One synchronous monitoring round: drain churn, run one FaultLocalizer
  // episode over the current epoch's fixed cover, merge the results.
  // Returns immediately while paused (see set_paused).
  void run_round();

  // Called at the end of every executed round with that round's record
  // (newly_flagged tells the hook whether anything needs attention). The
  // auto-repair stage (repair::AutoRepair) hangs off this. The hook may
  // enqueue/drain churn and run confirm episodes; it must not call
  // run_round() reentrantly.
  using RoundHook = std::function<void(const MonitorRound&)>;
  void set_round_hook(RoundHook hook) { round_hook_ = std::move(hook); }

  // Clears a flagged switch after a verified repair: the flag is dropped
  // from the report, and the probe cover is re-grown over the vertices
  // vacated when the flag retired their probes (coverage returns to 1.0).
  // No-op if the switch was not flagged.
  void mark_repaired(flow::SwitchId sw);

  // --- Observation. ---
  // The current epoch's immutable snapshot. Thread-safe: callers get a
  // shared_ptr that stays consistent across later epoch swaps.
  std::shared_ptr<const core::AnalysisSnapshot> snapshot() const;
  std::uint64_t epoch() const { return epoch_; }
  const std::vector<core::Probe>& probes() const { return probes_; }
  const ChurnStats& churn_stats() const { return churn_stats_; }
  const MonitorReport& report() const { return report_; }
  MonitorStatus status() const;
  // The full DetectionReport of the most recent executed round's episode
  // (per-probe evidence, suspicion levels, flag culprits — the diagnosis
  // input). Empty before the first round.
  const core::DetectionReport& last_detection() const {
    return last_detection_;
  }
  // Latest epoch's invariant verification (empty report when disabled).
  const analysis::VerifyReport& last_verify_report() const {
    return last_verify_;
  }
  const VerifySummary& verify_summary() const { return verify_summary_; }

 private:
  struct Instruments;  // resolved telemetry handles (monitor.cc)

  // Copies the working graph into a fresh owning snapshot; bumps epoch_.
  void swap_epoch();
  // Rebuilds the whole probe set: MLPC over the current snapshot + fresh
  // headers. Used at construction and in full-regeneration mode.
  void regenerate_probes();
  // Keeps probes untouched by `touched`, covers the remainder greedily.
  void repair_probes(const std::vector<core::VertexId>& touched);
  // Active vertices not covered by probes_, formed into legal paths.
  std::vector<std::vector<core::VertexId>> uncovered_paths() const;
  // Drops probes traversing a flagged switch (they would fail every round
  // while the fault awaits repair, re-localizing known information).
  void retire_flagged_probes();
  // Verifies the current epoch's snapshot: full verify when `touched` is
  // null (construction), incremental apply_delta otherwise. No-op unless
  // config.verify_invariants. Runs outside the repair timing so
  // ChurnStats::*_repair_ms keeps measuring repair alone.
  void run_verify(const std::vector<core::VertexId>* touched);
  void schedule_next_round();
  void publish_gauges();

  flow::RuleSet* rules_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  MonitorConfig config_;
  core::RuleGraph graph_;  // the one mutable graph; mutated between rounds

  mutable std::mutex snapshot_mu_;  // guards snapshot_ pointer swaps only
  std::shared_ptr<const core::AnalysisSnapshot> snapshot_;
  std::uint64_t epoch_ = 0;

  std::vector<core::Probe> probes_;
  std::uint64_t next_probe_id_ = 1;
  std::vector<ChurnOp> pending_;
  ChurnStats churn_stats_;
  ChurnLog last_churn_;
  core::DetectionReport last_detection_;
  RoundHook round_hook_;

  std::unique_ptr<analysis::Verifier> verifier_;  // null when disabled
  analysis::VerifyReport last_verify_;
  VerifySummary verify_summary_;

  bool running_ = false;
  bool paused_ = false;
  std::uint64_t generation_ = 0;  // invalidates queued round events on stop()
  MonitorReport report_;
  std::set<flow::SwitchId> flagged_;

  double start_sim_s_ = 0.0;
  util::WallTimer uptime_;
  std::unique_ptr<Instruments> tm_;
};

}  // namespace sdnprobe::monitor

// Probe construction (§V-B step 3 and §VI header uniqueness): turns cover
// paths into concrete test packets with headers that (a) traverse the whole
// tested path, (b) are unique across probes, via rejection sampling backed
// by the SAT solver when sampling stalls.
//
// make_probes runs in two phases. Phase A — per-path input-space computation
// and header-candidate sampling — is read-only over the snapshot and fans
// out across worker threads, with path i sampling from its own derived RNG
// stream. Phase B — the uniqueness commit against the `used_` header pool
// (and the rare SAT fallback) — is serialized in cover order. Output is
// therefore bit-identical for any thread count, including 1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "sat/session.h"
#include "sat/solver_config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {

struct Probe {
  std::uint64_t probe_id = 0;
  // The tested path as rule-graph vertices, in traversal order.
  std::vector<VertexId> path;
  // Same path as entry ids (convenience for localization bookkeeping).
  std::vector<flow::EntryId> entries;
  // Concrete header injected at the first switch.
  hsa::TernaryString header;
  // The header the terminal test entry must exact-match: the injected header
  // transformed by every set field *before* the terminal entry.
  hsa::TernaryString expected_return;
  flow::SwitchId inject_switch = -1;
  flow::EntryId terminal_entry = -1;
};

struct ProbeStats {
  std::uint64_t headers_by_sampling = 0;
  std::uint64_t headers_by_sat = 0;
  std::uint64_t sat_failures = 0;  // paths with no unique header available

  friend bool operator==(const ProbeStats&, const ProbeStats&) = default;
};

struct ProbeEngineConfig {
  // Shared knobs (core/common_options.h). The engine uses `threads` for
  // make_probes' candidate-generation phase (0 = hardware_concurrency,
  // 1 = serial; headers and stats identical for any value, see the file
  // comment). `seed` / `randomized` are unused here — the engine draws all
  // randomness from the caller-provided Rng.
  CommonOptions common;
  // Header candidates sampled per path before the SAT fallback.
  int sample_attempts = 16;
  // Solver knobs for the engine's SAT sessions (budget, restarts,
  // inprocessing).
  sat::SolverConfig sat;
};

class ProbeEngine {
 public:
  explicit ProbeEngine(const AnalysisSnapshot& snapshot,
                       ProbeEngineConfig config = {},
                       util::ThreadPool* pool = nullptr)
      : snapshot_(&snapshot), config_(config), pool_(pool) {}

  // Builds probes for every path of `cover`. Paths whose header synthesis
  // fails (exhausted header space) are skipped; see stats().sat_failures.
  // Consumes exactly one draw from `rng` (the per-path stream base), so the
  // caller's stream advances identically for any thread count.
  std::vector<Probe> make_probes(const Cover& cover, util::Rng& rng,
                                 const TrafficProfile* profile = nullptr);

  // Builds a probe for one legal path (used by Algorithm 2's path slicing).
  // Returns nullopt if the path is illegal or no unique header exists.
  std::optional<Probe> make_probe(const std::vector<VertexId>& path,
                                  util::Rng& rng,
                                  const TrafficProfile* profile = nullptr);

  // Forget previously issued headers (e.g. between detection rounds when
  // test points were torn down). Probe-header uniqueness (§VI) only matters
  // among *concurrently installed* test points, so callers reset per round
  // and re-register the headers still in flight via note_used().
  void reset_uniqueness();

  // Registers an externally retained header (a probe reused from a previous
  // round) so new headers keep differing from it.
  void note_used(const hsa::TernaryString& header) { used_.insert(header); }

  const ProbeStats& stats() const { return stats_; }

 private:
  std::optional<hsa::TernaryString> pick_unique_header(
      const hsa::HeaderSpace& input_space, util::Rng& rng,
      const TrafficProfile* profile);

  // Phase-B helper: first non-colliding candidate, else SAT. Serial only.
  std::optional<hsa::TernaryString> commit_unique_header(
      const hsa::HeaderSpace& input_space,
      const std::vector<hsa::TernaryString>& candidates);

  // Slow path shared by both header pickers: the engine's SAT session finds
  // a header in `input_space` differing from every issued header.
  std::optional<hsa::TernaryString> sat_unique_header(
      const hsa::HeaderSpace& input_space);

  // Fills in entries / inject switch / expected return for a legal path
  // whose header has been chosen.
  Probe finish_probe(const std::vector<VertexId>& path,
                     hsa::TernaryString header);

  // The engine's persistent SAT session for the given header width, created
  // on first use. The SAT fallback only ever runs in serialized phase-B
  // code, and session answers are canonical (lex-min), so keeping sessions
  // per engine preserves make_probes' thread-count determinism.
  sat::HeaderSession& session_for(int width);

  const AnalysisSnapshot* snapshot_;
  ProbeEngineConfig config_;
  util::ThreadPool* pool_;
  std::uint64_t next_probe_id_ = 1;
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> used_;
  std::unordered_map<int, std::unique_ptr<sat::HeaderSession>> sessions_;
  ProbeStats stats_;
};

}  // namespace sdnprobe::core

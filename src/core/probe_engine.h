// Probe construction (§V-B step 3 and §VI header uniqueness): turns cover
// paths into concrete test packets with headers that (a) traverse the whole
// tested path, (b) are unique across probes, via rejection sampling backed
// by the exact lex-min unused member of the path's input space
// (hsa::HeaderSpace::min_member) when sampling stalls — the role the
// paper gives MiniSat.
//
// make_probes runs in two phases. Phase A — per-path input-space computation
// and the path's first header candidate — is read-only over the snapshot and
// fans out across worker threads, with path i sampling from its own derived
// RNG stream. Phase B — the uniqueness commit against the `used_` header pool
// — is serialized in cover order. Candidates are drawn on demand: only a
// collision makes phase B draw the path's next candidate, from the same
// stream, up to sample_attempts, before the rare lex-min fallback. Since
// path i's k-th candidate is the k-th draw of its own stream whichever phase
// draws it, the headers are those of drawing all sample_attempts candidates
// up front, and output is bit-identical for any pool size, or no pool.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {

// The paper's probe timing (§VIII): probes of kProbeSizeBytes are paced at
// kProbeRateBytesPerS, and a round waits kDefaultRoundGraceS after its last
// send for in-flight returns (covers the worst-case path RTT). SDNProbe and
// both baselines share these so their detection delays compare like for
// like.
inline constexpr double kProbeRateBytesPerS = 250e3;
inline constexpr int kProbeSizeBytes = 64;
inline constexpr double kDefaultRoundGraceS = 0.1;

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
  std::uint64_t headers_by_lexmin = 0;
  std::uint64_t lexmin_failures = 0;  // paths with no unique header available

  friend bool operator==(const ProbeStats&, const ProbeStats&) = default;
};

struct ProbeEngineConfig {
  // Shared knobs (core/common_options.h), all unused here: the engine draws
  // all randomness from the caller-provided Rng, and make_probes'
  // candidate-generation phase runs on the pool passed to the constructor
  // (a null pool means serial; headers and stats are identical for any
  // pool, see the file comment).
  CommonOptions common;
  // Header candidates sampled per path before the lex-min fallback.
  int sample_attempts = 16;
};

class ProbeEngine {
 public:
  explicit ProbeEngine(const AnalysisSnapshot& snapshot,
                       ProbeEngineConfig config = {},
                       util::ThreadPool* pool = nullptr)
      : snapshot_(&snapshot), config_(config), pool_(pool) {}

  // Builds probes for every path of `cover`. Paths whose header synthesis
  // fails (exhausted header space) are skipped; see stats().lexmin_failures.
  // Consumes exactly one draw from `rng` (the per-path stream base), so the
  // caller's stream advances identically for any pool.
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
  // The first candidate not yet issued, starting from `first` (already
  // drawn, or nullopt when sampling is off) and drawing the next ones from
  // `rng` only after a collision, sample_attempts candidates in all; else
  // the lex-min fallback. Serial only; make_probe draws from the caller's
  // `rng`, make_probes from each path's own stream.
  std::optional<hsa::TernaryString> commit_unique_header(
      const hsa::HeaderSpace& input_space,
      std::optional<hsa::TernaryString> first, util::Rng& rng,
      const TrafficProfile* profile);

  // Slow path of commit_unique_header: the lex-min header in
  // `input_space` differing from every issued header. Counted as
  // headers_by_lexmin / lexmin_failures, the paper's solver role.
  std::optional<hsa::TernaryString> lexmin_unique_header(
      const hsa::HeaderSpace& input_space);

  // Fills in entries / inject switch / expected return for a legal path
  // whose header has been chosen.
  Probe finish_probe(const std::vector<VertexId>& path,
                     hsa::TernaryString header);

  const AnalysisSnapshot* snapshot_;
  ProbeEngineConfig config_;
  util::ThreadPool* pool_;
  std::uint64_t next_probe_id_ = 1;
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> used_;
  ProbeStats stats_;
};

}  // namespace sdnprobe::core

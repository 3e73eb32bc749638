#include "core/probe_engine.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace sdnprobe::core {
namespace {

// Process-wide instruments, resolved once (thread-safe static init). The
// per-engine ProbeStats stays the determinism-checked source of truth;
// these aggregate across engines into the run artifact. Counters are
// incremented from phase-A workers too — atomic adds, observational only.
struct EngineInstruments {
  telemetry::Counter& candidates;
  telemetry::Counter& committed;
  telemetry::Counter& lexmin_fallbacks;
  telemetry::Counter& lexmin_failures;

  static EngineInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static EngineInstruments i{
        reg.counter("probe_engine.header_candidates"),
        reg.counter("probe_engine.headers_committed"),
        // Pre-lex-min name kept: pipebench reads sat_fallbacks by name.
        reg.counter("probe_engine.sat_fallbacks"),
        reg.counter("probe_engine.lexmin_failures"),
    };
    return i;
  }
};

// One header candidate from `input`: traffic-biased when a profile is given,
// else uniform. nullopt only when `input` is empty.
std::optional<hsa::TernaryString> draw_candidate(
    const hsa::HeaderSpace& input, util::Rng& rng,
    const TrafficProfile* profile) {
  std::optional<hsa::TernaryString> h =
      profile ? profile->sample(input, rng) : input.sample(rng);
  if (h.has_value()) EngineInstruments::get().candidates.add();
  return h;
}

// A path's first candidate, or nullopt when `input` is empty or sampling is
// off (`attempts` <= 0).
std::optional<hsa::TernaryString> first_candidate(
    const hsa::HeaderSpace& input, util::Rng& rng, int attempts,
    const TrafficProfile* profile) {
  if (input.is_empty() || attempts <= 0) return std::nullopt;
  return draw_candidate(input, rng, profile);
}

// Phase-A output for one path: its input space, its first header candidate,
// and the path's RNG stream positioned after that draw, so phase B draws any
// later candidate from the same stream an eager draw of all of them would.
struct PathCandidates {
  hsa::HeaderSpace input;
  util::Rng rng;
  std::optional<hsa::TernaryString> first;
};

// Phase-A unit: the input space of `path` and, when `attempts` > 0, its
// first candidate drawn from util::Rng(stream_seed). Pure function of its
// arguments; safe to call concurrently from worker threads.
PathCandidates sample_path_candidates(const AnalysisSnapshot& snap,
                                      const std::vector<VertexId>& path,
                                      std::uint64_t stream_seed, int attempts,
                                      const TrafficProfile* profile) {
  PathCandidates c;
  c.rng = util::Rng(stream_seed);
  if (path.empty()) return c;
  c.input = snap.path_input_space(path);
  c.first = first_candidate(c.input, c.rng, attempts, profile);
  return c;
}

}  // namespace

std::optional<hsa::TernaryString> ProbeEngine::commit_unique_header(
    const hsa::HeaderSpace& input_space,
    std::optional<hsa::TernaryString> first, util::Rng& rng,
    const TrafficProfile* profile) {
  if (input_space.is_empty()) return std::nullopt;
  // Rejection sampling: collisions are rare because header spaces are huge
  // relative to probe counts, so the first candidate nearly always wins.
  std::optional<hsa::TernaryString> h = std::move(first);
  for (int attempt = 1; h.has_value(); ++attempt) {
    if (!used_.count(*h)) {
      ++stats_.headers_by_sampling;
      EngineInstruments::get().committed.add();
      used_.insert(*h);
      return h;
    }
    if (attempt >= config_.sample_attempts) break;
    h = draw_candidate(input_space, rng, profile);
  }
  return lexmin_unique_header(input_space);
}

std::optional<hsa::TernaryString> ProbeEngine::lexmin_unique_header(
    const hsa::HeaderSpace& input_space) {
  // The lex-min header of the space that differs from every previously
  // issued header (the paper's MiniSat use, §VI).
  EngineInstruments::get().lexmin_fallbacks.add();
  auto h = input_space.min_member(used_);
  if (h.has_value()) {
    ++stats_.headers_by_lexmin;
    EngineInstruments::get().committed.add();
    used_.insert(*h);
    return h;
  }
  ++stats_.lexmin_failures;
  EngineInstruments::get().lexmin_failures.add();
  return std::nullopt;
}

Probe ProbeEngine::finish_probe(const std::vector<VertexId>& path,
                                hsa::TernaryString header) {
  Probe p;
  p.probe_id = next_probe_id_++;
  p.path = path;
  p.header = std::move(header);
  const auto& rules = snapshot_->rules();
  p.entries.reserve(path.size());
  for (const VertexId v : path) p.entries.push_back(snapshot_->entry_of(v));
  p.inject_switch = rules.entry(p.entries.front()).switch_id;
  p.terminal_entry = p.entries.back();
  // Expected header at the terminal's test table: transformed by every set
  // field strictly before the terminal entry.
  hsa::TernaryString h = p.header;
  for (std::size_t i = 0; i + 1 < p.entries.size(); ++i) {
    h = h.transform(rules.entry(p.entries[i]).set_field);
  }
  p.expected_return = h;
  return p;
}

std::optional<Probe> ProbeEngine::make_probe(const std::vector<VertexId>& path,
                                             util::Rng& rng,
                                             const TrafficProfile* profile) {
  if (path.empty()) return std::nullopt;
  const hsa::HeaderSpace input = snapshot_->path_input_space(path);
  auto header = commit_unique_header(
      input, first_candidate(input, rng, config_.sample_attempts, profile),
      rng, profile);
  if (!header.has_value()) return std::nullopt;
  return finish_probe(path, std::move(*header));
}

std::vector<Probe> ProbeEngine::make_probes(const Cover& cover,
                                            util::Rng& rng,
                                            const TrafficProfile* profile) {
  telemetry::TraceSpan span("probe_engine.make_probes");
  const std::size_t n = cover.paths.size();
  // One base draw: path i samples from stream derive(base, i), so the
  // produced headers depend only on (cover, rng state at entry) and the
  // caller's stream advances by exactly one draw — never on the pool.
  const std::uint64_t base = rng.next();

  // Phase A (parallel, read-only): per-path input spaces and first header
  // candidates. Each worker touches only its own slot.
  std::vector<PathCandidates> candidates(n);
  auto generate = [&](std::size_t i) {
    candidates[i] = sample_path_candidates(
        *snapshot_, cover.paths[i].vertices,
        util::Rng::derive(base, static_cast<std::uint64_t>(i)),
        config_.sample_attempts, profile);
  };
  util::parallel_for(pool_, n, generate);

  // Phase B (serial, cover order): uniqueness commit against `used_` (later
  // candidates drawn from the path's stream only after a collision), lex-min
  // fallback for paths whose every candidate collided, probe assembly.
  std::vector<Probe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& path = cover.paths[i].vertices;
    if (path.empty()) continue;
    PathCandidates& c = candidates[i];
    auto header =
        commit_unique_header(c.input, std::move(c.first), c.rng, profile);
    if (header.has_value()) {
      probes.push_back(finish_probe(path, std::move(*header)));
    } else {
      LOG_WARN << "probe synthesis failed for a cover path of length "
               << path.size();
    }
  }
  span.annotate("probes", static_cast<double>(probes.size()));
  return probes;
}

void ProbeEngine::reset_uniqueness() { used_.clear(); }

}  // namespace sdnprobe::core

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
  telemetry::Counter& sat_fallbacks;
  telemetry::Counter& sat_failures;

  static EngineInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static EngineInstruments i{
        reg.counter("probe_engine.header_candidates"),
        reg.counter("probe_engine.headers_committed"),
        reg.counter("probe_engine.sat_fallbacks"),
        reg.counter("probe_engine.sat_failures"),
    };
    return i;
  }
};

// Phase-A output for one path: its input space plus the header candidates
// drawn from the path's derived RNG stream.
struct PathCandidates {
  hsa::HeaderSpace input;
  std::vector<hsa::TernaryString> samples;
};

// Phase-A unit: the input space of `path` and up to `attempts` candidates
// drawn from util::Rng(stream_seed). Pure function of its arguments; safe to
// call concurrently from worker threads.
PathCandidates sample_path_candidates(const AnalysisSnapshot& snap,
                                      const std::vector<VertexId>& path,
                                      std::uint64_t stream_seed, int attempts,
                                      const TrafficProfile* profile) {
  PathCandidates c;
  if (path.empty()) return c;
  c.input = snap.path_input_space(path);
  if (c.input.is_empty()) return c;
  util::Rng path_rng(stream_seed);
  c.samples.reserve(static_cast<std::size_t>(std::max(attempts, 0)));
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::optional<hsa::TernaryString> h = profile
                                              ? profile->sample(c.input, path_rng)
                                              : c.input.sample(path_rng);
    if (!h.has_value()) break;
    c.samples.push_back(std::move(*h));
  }
  EngineInstruments::get().candidates.add(c.samples.size());
  return c;
}

}  // namespace

std::optional<hsa::TernaryString> ProbeEngine::pick_unique_header(
    const hsa::HeaderSpace& input_space, util::Rng& rng,
    const TrafficProfile* profile) {
  if (input_space.is_empty()) return std::nullopt;
  // Fast path: sample (traffic-biased when a profile is given) and reject on
  // collision. Collisions are rare because header spaces are huge relative
  // to probe counts.
  for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
    std::optional<hsa::TernaryString> h =
        profile ? profile->sample(input_space, rng)
                : input_space.sample(rng);
    if (!h.has_value()) break;
    EngineInstruments::get().candidates.add();
    if (!used_.count(*h)) {
      ++stats_.headers_by_sampling;
      EngineInstruments::get().committed.add();
      used_.insert(*h);
      return h;
    }
  }
  return sat_unique_header(input_space);
}

std::optional<hsa::TernaryString> ProbeEngine::commit_unique_header(
    const hsa::HeaderSpace& input_space,
    const std::vector<hsa::TernaryString>& candidates) {
  if (input_space.is_empty()) return std::nullopt;
  for (const hsa::TernaryString& h : candidates) {
    if (!used_.count(h)) {
      ++stats_.headers_by_sampling;
      EngineInstruments::get().committed.add();
      used_.insert(h);
      return h;
    }
  }
  return sat_unique_header(input_space);
}

std::optional<hsa::TernaryString> ProbeEngine::sat_unique_header(
    const hsa::HeaderSpace& input_space) {
  // The lex-min header of the space that differs from every previously
  // issued header (the paper's MiniSat use, §VI).
  EngineInstruments::get().sat_fallbacks.add();
  auto h = input_space.min_member(used_);
  if (h.has_value()) {
    ++stats_.headers_by_sat;
    EngineInstruments::get().committed.add();
    used_.insert(*h);
    return h;
  }
  ++stats_.sat_failures;
  EngineInstruments::get().sat_failures.add();
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
  auto header = pick_unique_header(input, rng, profile);
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
  // caller's stream advances by exactly one draw — never on thread count.
  const std::uint64_t base = rng.next();

  // Phase A (parallel, read-only): per-path input spaces and header
  // candidates. Each worker touches only its own slot.
  std::vector<PathCandidates> candidates(n);
  auto generate = [&](std::size_t i) {
    candidates[i] = sample_path_candidates(
        *snapshot_, cover.paths[i].vertices,
        util::Rng::derive(base, static_cast<std::uint64_t>(i)),
        config_.sample_attempts, profile);
  };
  const std::size_t workers =
      n == 0 ? 1
             : std::min(util::ThreadPool::resolve_thread_count(config_.common.threads),
                        n);
  if (pool_ == nullptr || workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) generate(i);
  } else {
    util::parallel_for(pool_, n, generate);
  }

  // Phase B (serial, cover order): uniqueness commit against `used_`, lex-min
  // fallback for paths whose every candidate collided, probe assembly.
  std::vector<Probe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& path = cover.paths[i].vertices;
    if (path.empty()) continue;
    auto header = commit_unique_header(candidates[i].input,
                                       candidates[i].samples);
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

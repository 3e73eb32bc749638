// SAT session benchmark: cold per-query solvers vs incremental
// sat::HeaderSessions, over the campus dataset's deep-overlap
// header-uniqueness workload (§V-A synthesis + §VI uniqueness), plus the
// probe-generation delta with every header forced through the SAT path.
//
// The workload is the probe engine's real query pattern: a stream of
// deep-overlap input spaces where every answered header joins one global
// forbidden pool (§VI: probe headers must be unique network-wide), so query
// q carries q-1 not-this-header constraints. A cold solver (a throwaway
// session per query) re-encodes the space and the whole forbidden
// set on every call — O(q) re-encoded constraints per query, O(Q^2) over
// the stream; an incremental session encodes each space and each forbidden
// header exactly once and keeps its learned clauses.
//
// What this demonstrates (the PR's acceptance bar):
//   - incremental sessions answer the uniqueness stream with less wall time
//     and no more conflicts than the cold per-query baseline;
//   - answers are canonical (lex-min): every strategy returns the identical
//     header stream;
//   - probe generation is bit-identical at 1/2/8 threads even when every
//     header comes from the SAT fallback.
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "flow/campus.h"
#include "sat/session.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace sdnprobe;

namespace {

struct PassResult {
  double total_ms = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::vector<std::string> headers;  // "" for UNSAT queries
};

void record_answer(PassResult& r, const std::optional<hsa::TernaryString>& h,
                   std::vector<hsa::TernaryString>& forbidden) {
  if (h.has_value()) {
    r.headers.push_back(h->to_string());
    forbidden.push_back(*h);
  } else {
    r.headers.push_back(std::string());
  }
}

// Cold baseline: a throwaway solver + encoding per find_header call, i.e.
// what a one-shot per-query solver does. Every
// call re-encodes the space and the entire forbidden set so far.
PassResult run_cold(const std::vector<const hsa::HeaderSpace*>& stream,
                    int width) {
  PassResult r;
  std::vector<hsa::TernaryString> forbidden;
  util::WallTimer t;
  for (const auto* space : stream) {
    sat::HeaderSession session(width);
    record_answer(r, session.find_header(*space, forbidden), forbidden);
    r.conflicts += session.solver().stats().conflicts;
    r.propagations += session.solver().stats().propagations;
  }
  r.total_ms = t.elapsed_millis();
  return r;
}

// Incremental: one shared session for the whole stream (the probe engine's
// pattern, one session per header width). Each space is encoded once, each
// forbidden header gets one cached activation guard, and learned clauses
// persist across all queries.
PassResult run_shared(const std::vector<const hsa::HeaderSpace*>& stream,
                      sat::HeaderSession& session) {
  PassResult r;
  std::vector<hsa::TernaryString> forbidden;
  const std::uint64_t conflicts0 = session.solver().stats().conflicts;
  const std::uint64_t props0 = session.solver().stats().propagations;
  util::WallTimer t;
  for (const auto* space : stream) {
    record_answer(r, session.find_header(*space, forbidden), forbidden);
  }
  r.total_ms = t.elapsed_millis();
  r.conflicts = session.solver().stats().conflicts - conflicts0;
  r.propagations = session.solver().stats().propagations - props0;
  return r;
}

// Guard-retirement pass: one long-lived session visits a stream of distinct
// spaces exactly once each. An unbounded session keeps every space's guarded
// clauses armed in the clause DB and watch lists forever, so per-query
// propagation grows with the number of spaces ever seen; a capped session
// retires LRU spaces (permanent ¬guard unit + simplify() sweep), keeping the
// live clause set — and propagation — bounded by the cap.
struct RetireResult {
  double total_ms = 0.0;
  std::vector<std::string> headers;
  std::vector<std::uint64_t> props;  // per-query propagation deltas
};

RetireResult run_retirement(const std::vector<const hsa::HeaderSpace*>& stream,
                            sat::HeaderSession& session) {
  RetireResult r;
  util::WallTimer t;
  for (const auto* space : stream) {
    const std::uint64_t p0 = session.solver().stats().propagations;
    const auto h = session.find_header(*space, {});
    r.props.push_back(session.solver().stats().propagations - p0);
    r.headers.push_back(h.has_value() ? h->to_string() : std::string());
  }
  r.total_ms = t.elapsed_millis();
  return r;
}

double mean_last_quarter(const std::vector<std::uint64_t>& xs) {
  if (xs.empty()) return 0.0;
  const std::size_t from = xs.size() - xs.size() / 4;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = from; i < xs.size(); ++i, ++count) {
    sum += static_cast<double>(xs[i]);
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header("SAT sessions: cold vs incremental header synthesis",
                      "SDNProbe ICDCS'18 SectionV-A / SectionVI uniqueness");
  bench::BenchReport report("sat", "SDNProbe ICDCS'18 SectionV-A", full);

  // Query stream: the campus dataset's deep-overlap rules, the regime the
  // paper singles out as the SAT solver's job (65-deep overlap chains).
  // The stream cycles through the spaces `rounds` times; every answered
  // header joins a global forbidden set, exactly like the probe engine's
  // §VI uniqueness pool, so query q carries q-1 not-this-header constraints.
  flow::CampusConfig cc;
  const flow::RuleSet rs = flow::make_campus_ruleset(cc);
  core::RuleGraph graph(rs);
  const core::AnalysisSnapshot snap(graph);
  const std::size_t space_cap = full ? static_cast<std::size_t>(-1) : 64;
  const int rounds = full ? 8 : 4;
  std::vector<const hsa::HeaderSpace*> spaces;
  for (core::VertexId v = 0; v < graph.vertex_count(); ++v) {
    const flow::FlowEntry& e = rs.entry(graph.entry_of(v));
    if (rs.table(e.switch_id, e.table_id).overlapping_above(e).size() < 8) {
      continue;  // only the deep chains make the solver work
    }
    spaces.push_back(&graph.in_space(v));
    if (spaces.size() >= space_cap) break;
  }
  std::vector<const hsa::HeaderSpace*> stream;
  for (int round = 0; round < rounds; ++round) {
    stream.insert(stream.end(), spaces.begin(), spaces.end());
  }
  std::printf("workload: %zu queries (%zu deep-overlap spaces x %d rounds, "
              "global uniqueness pool), width %d\n",
              stream.size(), spaces.size(), rounds, rs.header_width());
  report.set_param("queries", std::uint64_t{stream.size()});
  report.set_param("spaces", std::uint64_t{spaces.size()});
  report.set_param("rounds", rounds);
  report.set_param("header_width", rs.header_width());

  const PassResult cold = run_cold(stream, rs.header_width());
  sat::HeaderSession shared_session(rs.header_width());
  const PassResult shared = run_shared(stream, shared_session);
  // Warm re-run: guard caches full, learned clauses in place.
  const PassResult warm = run_shared(stream, shared_session);

  std::printf("\n%-26s %10s %12s %14s\n", "strategy", "time (ms)",
              "conflicts", "propagations");
  struct NamedPass { const char* name; const PassResult* p; };
  for (const NamedPass np :
       {NamedPass{"cold (per-query solver)", &cold},
        NamedPass{"incremental session", &shared},
        NamedPass{"incremental (warm)", &warm}}) {
    std::printf("%-26s %10.2f %12llu %14llu\n", np.name, np.p->total_ms,
                static_cast<unsigned long long>(np.p->conflicts),
                static_cast<unsigned long long>(np.p->propagations));
    auto& row = report.add_row();
    row["strategy"] = np.name;
    row["time_ms"] = np.p->total_ms;
    row["conflicts"] = np.p->conflicts;
    row["propagations"] = np.p->propagations;
  }

  // Canonical answers: every strategy must return the identical stream.
  const bool identical = cold.headers == shared.headers &&
                         cold.headers == warm.headers;
  const bool incremental_wins =
      shared.total_ms < cold.total_ms && shared.conflicts <= cold.conflicts;
  std::printf("\nanswer streams identical across strategies: %s\n",
              identical ? "yes" : "NO");
  std::printf("incremental beats cold (time, conflicts): %s "
              "(%.2fx wall-time speedup)\n",
              incremental_wins ? "yes" : "NO",
              shared.total_ms > 0.0 ? cold.total_ms / shared.total_ms : 0.0);
  report.set_summary("answers_identical", identical);
  report.set_summary("incremental_beats_cold", incremental_wins);
  report.set_summary("cold_ms", cold.total_ms);
  report.set_summary("incremental_ms", shared.total_ms);
  report.set_summary("warm_ms", warm.total_ms);
  report.set_summary("cold_conflicts", cold.conflicts);
  report.set_summary("incremental_conflicts", shared.conflicts);
  report.set_summary("speedup_vs_cold",
                     shared.total_ms > 0.0 ? cold.total_ms / shared.total_ms
                                           : 0.0);
  report.set_summary("session_queries", shared_session.queries());

  // --- Guard retirement: capped vs unbounded space cache. ---
  // Stream hundreds of *distinct* spaces (every deduplicated vertex input
  // space, no repeats) through two long-lived sessions. Both answer the
  // same lex-min headers (retirement only discards spaces that are not in
  // the current query), but only the capped session's tail-of-stream
  // propagation stays flat instead of growing with every space ever seen.
  std::vector<const hsa::HeaderSpace*> distinct;
  {
    std::unordered_set<std::string> seen;
    const std::size_t distinct_cap = full ? 512 : 192;
    for (core::VertexId v = 0;
         v < graph.vertex_count() && distinct.size() < distinct_cap; ++v) {
      const hsa::HeaderSpace& s = graph.in_space(v);
      if (s.is_empty()) continue;
      std::string key;
      for (const auto& cube : s.cubes()) {
        key += cube.to_string();
        key += '|';
      }
      if (seen.insert(std::move(key)).second) distinct.push_back(&s);
    }
  }
  const std::size_t retire_cap = 48;
  sat::HeaderSession capped(rs.header_width(), {}, retire_cap);
  sat::HeaderSession unbounded(rs.header_width(), {}, 0);
  const RetireResult capped_r = run_retirement(distinct, capped);
  const RetireResult unbounded_r = run_retirement(distinct, unbounded);
  const double capped_tail = mean_last_quarter(capped_r.props);
  const double unbounded_tail = mean_last_quarter(unbounded_r.props);
  const bool retire_identical = capped_r.headers == unbounded_r.headers;
  const bool retire_flat = capped_tail <= unbounded_tail;
  std::printf("\nguard retirement: %zu distinct spaces, cap %zu\n",
              distinct.size(), retire_cap);
  std::printf("  capped:    %8.2f ms, tail propagations/query %10.1f, "
              "%llu evicted, %zu cached\n",
              capped_r.total_ms, capped_tail,
              static_cast<unsigned long long>(capped.spaces_evicted()),
              capped.cached_spaces());
  std::printf("  unbounded: %8.2f ms, tail propagations/query %10.1f, "
              "%llu evicted, %zu cached\n",
              unbounded_r.total_ms, unbounded_tail,
              static_cast<unsigned long long>(unbounded.spaces_evicted()),
              unbounded.cached_spaces());
  std::printf("  answers identical: %s; capped tail <= unbounded tail: %s\n",
              retire_identical ? "yes" : "NO", retire_flat ? "yes" : "NO");
  for (const char* which : {"capped", "unbounded"}) {
    const bool is_capped = std::strcmp(which, "capped") == 0;
    const RetireResult& rr = is_capped ? capped_r : unbounded_r;
    const sat::HeaderSession& s = is_capped ? capped : unbounded;
    auto& row = report.add_row();
    row["strategy"] = std::string("retirement_") + which;
    row["time_ms"] = rr.total_ms;
    row["tail_propagations_per_query"] = mean_last_quarter(rr.props);
    row["spaces_encoded"] = s.spaces_encoded();
    row["spaces_evicted"] = s.spaces_evicted();
    row["cached_spaces"] = std::uint64_t{s.cached_spaces()};
  }
  report.set_summary("retirement_spaces", std::uint64_t{distinct.size()});
  report.set_summary("retirement_cap", std::uint64_t{retire_cap});
  report.set_summary("retirement_answers_identical", retire_identical);
  report.set_summary("retirement_tail_flat", retire_flat);
  report.set_summary("retirement_capped_tail_props", capped_tail);
  report.set_summary("retirement_unbounded_tail_props", unbounded_tail);

  // Probe-generation delta: force every probe header through the SAT
  // fallback (sample_attempts = 0) and check the report is bit-identical
  // for 1/2/8 worker threads.
  const core::Cover cover = core::MlpcSolver().solve(snap);
  std::printf("\nprobe generation, all headers via SAT (%zu paths):\n",
              cover.path_count());
  std::vector<std::string> reference;
  bool deterministic = true;
  for (const int threads : {1, 2, 8}) {
    core::ProbeEngineConfig pc;
    pc.common.threads = threads;
    pc.sample_attempts = 0;
    core::ProbeEngine engine(snap, pc);
    util::Rng rng(11);
    util::WallTimer t;
    const auto probes = engine.make_probes(cover, rng);
    const double ms = t.elapsed_millis();
    std::vector<std::string> rendered;
    rendered.reserve(probes.size());
    for (const auto& p : probes) {
      rendered.push_back(p.header.to_string() + "|" +
                         p.expected_return.to_string());
    }
    if (reference.empty()) reference = rendered;
    deterministic &= (rendered == reference);
    std::printf("  threads=%d: %zu probes in %.1f ms, %llu by SAT\n", threads,
                probes.size(), ms,
                static_cast<unsigned long long>(engine.stats().headers_by_sat));
    auto& row = report.add_row();
    row["threads"] = threads;
    row["probes"] = std::uint64_t{probes.size()};
    row["probe_gen_ms"] = ms;
    row["headers_by_sat"] = engine.stats().headers_by_sat;
  }
  std::printf("probe reports identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");
  report.set_summary("probe_reports_identical", deterministic);
  return identical && incremental_wins && deterministic && retire_identical &&
                 retire_flat
             ? 0
             : 1;
}

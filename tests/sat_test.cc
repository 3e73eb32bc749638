// Tests for the incremental CDCL SAT solver, the clause arena, the
// header-constraint encoder, and the persistent HeaderSession API.
#include "sat/clause_allocator.h"
#include "sat/header_encoder.h"
#include "sat/session.h"
#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::sat {
namespace {

TEST(SatSolver, TrivialSatAndModel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_unit(neg(a));
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_unit(pos(a));
  s.add_unit(neg(a));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  s.new_var();
  EXPECT_FALSE(s.add_clause({}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, TautologyIsDropped) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
  EXPECT_EQ(s.solve(), Result::kSat);
}

// Adds pigeonhole clauses for P pigeons in H holes over fresh variables,
// optionally prefixing every clause with `guard_prefix` (e.g. {neg(g)}), so
// the instance only bites while g is assumed.
std::vector<std::vector<Var>> add_pigeonhole(Solver& s, int pigeons, int holes,
                                             const std::vector<Lit>& prefix) {
  std::vector<std::vector<Var>> x(
      static_cast<std::size_t>(pigeons),
      std::vector<Var>(static_cast<std::size_t>(holes)));
  for (auto& row : x) {
    for (auto& v : row) v = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some = prefix;
    for (int h = 0; h < holes; ++h) {
      some.push_back(pos(x[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(h)]));
    }
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        std::vector<Lit> pair = prefix;
        pair.push_back(neg(x[static_cast<std::size_t>(p1)]
                            [static_cast<std::size_t>(h)]));
        pair.push_back(neg(x[static_cast<std::size_t>(p2)]
                            [static_cast<std::size_t>(h)]));
        s.add_clause(pair);
      }
    }
  }
  return x;
}

TEST(SatSolver, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  Solver s;
  add_pigeonhole(s, 4, 3, {});
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, RandomThreeSatModelsVerify) {
  // Satisfiable random 3-SAT at low clause density; every model returned
  // must actually satisfy the formula.
  util::Rng rng(12);
  for (int inst = 0; inst < 10; ++inst) {
    constexpr int N = 30;
    Solver s;
    for (int i = 0; i < N; ++i) s.new_var();
    // Plant a solution so instances are guaranteed satisfiable.
    std::vector<bool> planted(N);
    for (auto&& b : planted) b = rng.next_bool(0.5);
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 3 * N; ++c) {
      std::vector<Lit> cl;
      bool satisfied = false;
      for (int k = 0; k < 3; ++k) {
        const Var v = static_cast<Var>(rng.next_below(N));
        const bool negated = rng.next_bool(0.5);
        cl.push_back(make_lit(v, negated));
        satisfied |= (planted[static_cast<std::size_t>(v)] != negated);
      }
      if (!satisfied) {
        // Flip one literal to agree with the planted assignment.
        const Var v = var_of(cl[0]);
        cl[0] = make_lit(v, !planted[static_cast<std::size_t>(v)]);
      }
      clauses.push_back(cl);
      s.add_clause(cl);
    }
    ASSERT_EQ(s.solve(), Result::kSat);
    for (const auto& cl : clauses) {
      bool sat = false;
      for (const Lit l : cl) {
        sat |= (s.model_value(var_of(l)) != is_negated(l));
      }
      EXPECT_TRUE(sat) << "model violates a clause (instance " << inst << ")";
    }
  }
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  // Hard pigeonhole with a tiny budget must give up, not hang. The budget
  // now lives in SolverConfig instead of a loose solve() parameter.
  SolverConfig cfg;
  cfg.conflict_budget = 5;
  Solver s(cfg);
  add_pigeonhole(s, 8, 7, {});
  EXPECT_EQ(s.solve(), Result::kUnknown);
  // Raising the budget through config() unsticks the same solver.
  s.config().conflict_budget = -1;
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, AssumptionsActAsRetractableDecisions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(neg(a), pos(b));  // a -> b
  ASSERT_EQ(s.solve({pos(a)}), Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  // The assumption retracts: nothing forces a anymore.
  ASSERT_EQ(s.solve({neg(a), neg(b)}), Result::kSat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_FALSE(s.model_value(b));
}

TEST(SatSolver, FailedAssumptionCore) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_binary(neg(a), neg(b));  // a and b conflict
  ASSERT_EQ(s.solve({pos(a), pos(b), pos(c)}), Result::kUnsat);
  const auto& core = s.failed_assumptions();
  ASSERT_FALSE(core.empty());
  // Every core literal is one of the assumptions...
  for (const Lit l : core) {
    EXPECT_TRUE(l == pos(a) || l == pos(b) || l == pos(c));
  }
  // ...and the core pins the genuinely conflicting pair, not the bystander.
  EXPECT_NE(std::find(core.begin(), core.end(), pos(a)), core.end());
  EXPECT_NE(std::find(core.begin(), core.end(), pos(b)), core.end());
  EXPECT_EQ(std::find(core.begin(), core.end(), pos(c)), core.end());
  // An unconditional contradiction yields an empty core.
  s.add_unit(pos(a));
  s.add_unit(neg(a));
  ASSERT_EQ(s.solve({pos(c)}), Result::kUnsat);
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(SatSolver, ActivationGuardRetractsConstraints) {
  // The HeaderSession encoding pattern: a guard g arms (x ∧ ¬x) only while
  // assumed, and the solver stays usable after the guarded contradiction.
  Solver s;
  const Var g = s.new_var();
  const Var x = s.new_var();
  s.add_binary(neg(g), pos(x));
  s.add_binary(neg(g), neg(x));
  ASSERT_EQ(s.solve({pos(g)}), Result::kUnsat);
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions()[0], pos(g));
  // Retracted: the formula itself is satisfiable, repeatedly.
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.model_value(g));
  ASSERT_EQ(s.solve({pos(g)}), Result::kUnsat);
  ASSERT_EQ(s.solve({neg(g), pos(x)}), Result::kSat);
  EXPECT_TRUE(s.model_value(x));
}

TEST(SatSolver, LearnedClausesPersistAcrossSolves) {
  // A guarded pigeonhole solved twice: the second solve reuses the first
  // solve's learned clauses and must spend strictly fewer conflicts.
  Solver s;
  const Var g = s.new_var();
  add_pigeonhole(s, 6, 5, {neg(g)});  // armed only under the assumption g
  ASSERT_EQ(s.solve({pos(g)}), Result::kUnsat);
  const std::uint64_t first = s.stats().conflicts;
  ASSERT_GT(first, 0u);
  ASSERT_EQ(s.solve({pos(g)}), Result::kUnsat);
  const std::uint64_t second = s.stats().conflicts - first;
  EXPECT_LT(second, first);
  EXPECT_GT(s.stats().learned_clauses, 0u);
  // The solver itself is still consistent (guard retracts).
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, ReductionAndGarbageCollectionKeepAnswersRight) {
  // Small reduce/GC thresholds force clause-DB reduction and arena
  // collection during one guarded UNSAT proof; the solver must survive and
  // still answer correctly afterwards.
  SolverConfig cfg;
  cfg.reduce_base = 50;
  cfg.gc_wasted_fraction = 0.05;
  Solver s(cfg);
  const Var g = s.new_var();
  add_pigeonhole(s, 7, 6, {neg(g)});
  ASSERT_EQ(s.solve({pos(g)}), Result::kUnsat);
  EXPECT_GT(s.stats().reduce_runs, 0u);
  EXPECT_GT(s.stats().learned_removed, 0u);
  EXPECT_GT(s.stats().gc_runs, 0u);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.solve({pos(g)}), Result::kUnsat);
}

TEST(ClauseAllocator, CopyingGcForwardsAndPreserves) {
  ClauseAllocator ca;
  const std::vector<Lit> c1 = {0, 2, 4};
  const std::vector<Lit> c2 = {1, 3};
  const std::vector<Lit> c3 = {5, 7, 9, 11};
  const ClauseRef r1 = ca.alloc(c1, /*learned=*/false);
  const ClauseRef r2 = ca.alloc(c2, /*learned=*/true);
  ca.deref(r2).set_activity(3.5f);
  const ClauseRef r3 = ca.alloc(c3, /*learned=*/false);
  ca.free_clause(r1);
  EXPECT_EQ(ca.wasted_words(),
            static_cast<std::size_t>(ClauseAllocator::clause_words(3, false)));

  ClauseAllocator to;
  to.reserve_for_copy(ca);
  ClauseRef n2 = r2;
  ca.reloc(n2, to);
  ClauseRef n2_again = r2;
  ca.reloc(n2_again, to);
  EXPECT_EQ(n2, n2_again) << "second visit must chase the forwarding ref";
  ClauseRef n3 = r3;
  ca.reloc(n3, to);

  const Clause d2 = to.deref(n2);
  ASSERT_EQ(d2.size(), 2);
  EXPECT_TRUE(d2.learned());
  EXPECT_FLOAT_EQ(d2.activity(), 3.5f);
  for (int i = 0; i < d2.size(); ++i) {
    EXPECT_EQ(d2[i], c2[static_cast<std::size_t>(i)]);
  }
  const Clause d3 = to.deref(n3);
  ASSERT_EQ(d3.size(), 4);
  EXPECT_FALSE(d3.learned());
  for (int i = 0; i < d3.size(); ++i) {
    EXPECT_EQ(d3[i], c3[static_cast<std::size_t>(i)]);
  }
  // The dead clause was never copied: the target arena is dense.
  EXPECT_EQ(to.size_words(),
            static_cast<std::size_t>(ClauseAllocator::clause_words(2, true) +
                                     ClauseAllocator::clause_words(4, false)));
  EXPECT_EQ(to.wasted_words(), 0u);
}

TEST(HeaderEncoder, FindsHeaderInDifference) {
  // The §V-A use case: a header in match − overlap.
  const auto match = *hsa::TernaryString::parse("001xxxxx");
  const auto overlap = *hsa::TernaryString::parse("00100xxx");
  const hsa::HeaderSpace in = hsa::HeaderSpace(match).subtract(overlap);
  HeaderSession session(8);
  const auto h = session.find_header(in);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(match.covers(*h));
  EXPECT_FALSE(overlap.covers(*h));
}

TEST(HeaderEncoder, UnsatWhenSpaceEmpty) {
  HeaderSession session(8);
  EXPECT_FALSE(session.find_header(hsa::HeaderSpace::empty(8)).has_value());
}

TEST(HeaderEncoder, UniquenessExhaustsTinySpace) {
  // A 2-header space yields exactly two distinct headers, then UNSAT.
  const auto cube = *hsa::TernaryString::parse("0110101x");
  const hsa::HeaderSpace space{hsa::HeaderSpace(cube)};
  HeaderSession session(8);
  std::vector<hsa::TernaryString> used;
  for (int i = 0; i < 2; ++i) {
    const auto h = session.find_header(space, used);
    ASSERT_TRUE(h.has_value());
    for (const auto& u : used) EXPECT_FALSE(u == *h);
    used.push_back(*h);
  }
  EXPECT_FALSE(session.find_header(space, used).has_value());
}

TEST(HeaderEncoder, DeepOverlapChain) {
  // 65-deep nested prefixes (the campus §VIII-A regime): the residual space
  // of the shallowest rule is match − next-deeper prefix; SAT must find a
  // witness quickly.
  hsa::HeaderSpace space = hsa::HeaderSpace(
      *hsa::TernaryString::parse(std::string(96, 'x')));
  hsa::TernaryString pinned = hsa::TernaryString::wildcard(96);
  for (int depth = 0; depth < 65; ++depth) {
    pinned.set(depth, hsa::Trit::kOne);
    space = space.subtract(pinned);
  }
  HeaderSession session(96);
  const auto h = session.find_header(space);
  ASSERT_TRUE(h.has_value());
  // The witness must break the all-ones prefix somewhere in the first 65.
  bool broken = false;
  for (int k = 0; k < 65; ++k) broken |= (h->get(k) == hsa::Trit::kZero);
  EXPECT_TRUE(broken);
}

// Brute-force oracle: the lexicographically smallest member of
// space − forbidden at small widths (H[0] is the most significant bit, so
// ascending integer order is ascending lex order).
std::optional<hsa::TernaryString> oracle_lex_min(
    const hsa::HeaderSpace& space,
    const std::vector<hsa::TernaryString>& forbidden) {
  const int w = space.width();
  for (std::uint64_t val = 0; val < (1ull << w); ++val) {
    const auto h = hsa::TernaryString::exact(val, w);
    if (!space.contains(h)) continue;
    bool banned = false;
    for (const auto& u : forbidden) banned |= (u == h);
    if (!banned) return h;
  }
  return std::nullopt;
}

hsa::TernaryString random_cube(util::Rng& rng, int width, double wild_p) {
  hsa::TernaryString t(width);
  for (int k = 0; k < width; ++k) {
    if (rng.next_bool(wild_p)) continue;  // keep wildcard
    t.set(k, rng.next_bool(0.5) ? hsa::Trit::kOne : hsa::Trit::kZero);
  }
  return t;
}

TEST(HeaderSession, MatchesOracleAndFreshSessionOnRandomQueries) {
  // The canonical-answer contract: a long-lived session (arbitrary learned
  // state), a session whose space cache holds only two guards (so most
  // queries retire one), and a throwaway session must all return the
  // brute-force lex-min header for every query.
  constexpr int W = 8;
  util::Rng rng(77);
  HeaderSession persistent(W);
  HeaderSession evicting(W, SolverConfig{}, /*space_cache_cap=*/2);
  int nonempty = 0;
  for (int q = 0; q < 40; ++q) {
    hsa::HeaderSpace space(W);
    const int cubes = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < cubes; ++i) {
      space = space.union_with(hsa::HeaderSpace(random_cube(rng, W, 0.6)));
    }
    if (rng.next_bool(0.5)) space = space.subtract(random_cube(rng, W, 0.5));

    std::vector<hsa::TernaryString> forbidden;
    for (int i = 0; i < 2 && rng.next_bool(0.6); ++i) {
      const auto member = oracle_lex_min(space, forbidden);
      if (member.has_value()) forbidden.push_back(*member);
    }

    const auto expected = oracle_lex_min(space, forbidden);
    const auto from_persistent = persistent.find_header(space, forbidden);
    const auto from_evicting = evicting.find_header(space, forbidden);
    HeaderSession fresh(W);
    const auto from_fresh = fresh.find_header(space, forbidden);

    ASSERT_EQ(expected.has_value(), from_persistent.has_value()) << "query " << q;
    ASSERT_EQ(expected.has_value(), from_evicting.has_value())
        << "query " << q;
    ASSERT_EQ(expected.has_value(), from_fresh.has_value()) << "query " << q;
    if (expected.has_value()) {
      ++nonempty;
      EXPECT_TRUE(*expected == *from_persistent)
          << "query " << q << ": session " << from_persistent->to_string()
          << " vs oracle " << expected->to_string();
      EXPECT_TRUE(*expected == *from_evicting) << "query " << q;
      EXPECT_TRUE(*expected == *from_fresh) << "query " << q;
    }
  }
  EXPECT_GT(nonempty, 5) << "workload degenerate: almost every space empty";
  EXPECT_EQ(persistent.queries(), 40u);
  EXPECT_GT(evicting.spaces_evicted(), 0u);
  EXPECT_LE(evicting.cached_spaces(), 2u);
}

TEST(HeaderSession, RepeatedQueriesReuseGuardsAndStayCanonical) {
  // Re-asking the same query must hit the guard caches (no new variables)
  // and return the identical header.
  const auto match = *hsa::TernaryString::parse("01xxxxxx");
  const hsa::HeaderSpace space =
      hsa::HeaderSpace(match).subtract(*hsa::TernaryString::parse("010xxxxx"));
  HeaderSession session(8);
  const auto first = session.find_header(space);
  ASSERT_TRUE(first.has_value());
  const int vars_after_first = session.solver().num_vars();
  for (int i = 0; i < 5; ++i) {
    const auto again = session.find_header(space);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(*again == *first);
  }
  EXPECT_EQ(session.solver().num_vars(), vars_after_first)
      << "cached space guard should be reused, not re-encoded";
  EXPECT_EQ(session.queries(), 6u);
}

TEST(SessionDeterminism, ProbeReportsIdenticalAcrossThreadCounts) {
  // sample_attempts = 0 forces every probe header through the SAT-session
  // fallback; reports must be bit-identical at 1/2/8 threads.
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
  core::RuleGraph graph(rs);
  core::AnalysisSnapshot snap(graph);
  const core::Cover cover = core::MlpcSolver().solve(snap);

  std::vector<std::string> reference;
  for (const int threads : {1, 2, 8}) {
    core::ProbeEngineConfig cfg;
    cfg.common.threads = threads;
    cfg.sample_attempts = 0;
    const auto pool =
        threads > 1
            ? std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads))
            : nullptr;
    core::ProbeEngine engine(snap, cfg, pool.get());
    util::Rng rng(11);
    const auto probes = engine.make_probes(cover, rng);
    ASSERT_FALSE(probes.empty());
    EXPECT_EQ(engine.stats().headers_by_sampling, 0u);
    EXPECT_EQ(engine.stats().headers_by_sat,
              static_cast<std::uint64_t>(probes.size()));
    std::vector<std::string> rendered;
    rendered.reserve(probes.size());
    for (const auto& p : probes) {
      std::string row = p.header.to_string();
      row += '|';
      row += p.expected_return.to_string();
      row += '|';
      row += std::to_string(p.inject_switch);
      row += '|';
      for (const auto v : p.path) row += std::to_string(v) + ",";
      rendered.push_back(std::move(row));
    }
    if (reference.empty()) {
      reference = std::move(rendered);
    } else {
      EXPECT_EQ(rendered, reference)
          << "probe report diverged at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace sdnprobe::sat

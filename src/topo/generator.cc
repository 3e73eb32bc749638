#include "topo/generator.h"

#include <algorithm>
#include <cassert>

namespace sdnprobe::topo {
namespace {

// Fraction of nodes forming the densely connected core.
constexpr double kCoreFraction = 0.2;
// Link latency drawn uniformly from [kMinLatencyS, kMaxLatencyS] seconds.
constexpr double kMinLatencyS = 0.5e-3;
constexpr double kMaxLatencyS = 2.0e-3;

}  // namespace

Graph make_rocketfuel_like(const GeneratorConfig& config) {
  const int n = std::max(config.node_count, 2);
  const long max_links = static_cast<long>(n) * (n - 1) / 2;
  const int target_links = static_cast<int>(std::clamp<long>(
      config.link_count, n - 1, max_links));
  util::Rng rng(config.seed);
  Graph g(n);

  auto rand_latency = [&rng]() {
    return kMinLatencyS + rng.next_double() * (kMaxLatencyS - kMinLatencyS);
  };

  const int core = std::max(2, static_cast<int>(n * kCoreFraction));

  // Core ring for guaranteed connectivity among core routers, then chords.
  for (int i = 0; i < core; ++i) {
    g.add_edge(i, (i + 1) % core, rand_latency());
  }

  // Preferential attachment of edge routers to earlier nodes: endpoints are
  // chosen proportionally to degree+1, giving the heavy-tailed degrees seen
  // in Rocketfuel router-level maps.
  auto pick_preferential = [&](int upto) {
    long total = 0;
    for (int i = 0; i < upto; ++i) total += g.degree(i) + 1;
    long pick = static_cast<long>(rng.next_below(
        static_cast<std::uint64_t>(total)));
    for (int i = 0; i < upto; ++i) {
      pick -= g.degree(i) + 1;
      if (pick < 0) return i;
    }
    return upto - 1;
  };

  for (int v = core; v < n; ++v) {
    // Each new router homes to one existing router (keeps the graph a tree
    // beyond the core until the chord-filling phase below).
    const int u = pick_preferential(v);
    g.add_edge(u, v, rand_latency());
  }

  // Fill remaining links with preferential chords.
  int guard = 0;
  while (g.edge_count() < target_links && guard < 100000) {
    ++guard;
    const int a = pick_preferential(n);
    const int b = pick_preferential(n);
    if (a == b || g.has_edge(a, b)) continue;
    g.add_edge(a, b, rand_latency());
  }
  // Extremely dense requests may stall on rejection sampling; finish
  // deterministically.
  for (int a = 0; a < n && g.edge_count() < target_links; ++a) {
    for (int b = a + 1; b < n && g.edge_count() < target_links; ++b) {
      if (!g.has_edge(a, b)) g.add_edge(a, b, rand_latency());
    }
  }

  assert(g.is_connected());
  return g;
}

const std::vector<TableTwoPreset>& table_two_presets() {
  static const std::vector<TableTwoPreset> kPresets = {
      {"topo1", 10, 15, 4764},   {"topo2", 30, 54, 33637},
      {"topo3", 30, 54, 82740},  {"topo4", 79, 147, 205713},
      {"topo5", 79, 147, 358675},
  };
  return kPresets;
}

}  // namespace sdnprobe::topo

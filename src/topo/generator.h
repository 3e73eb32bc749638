// Topology synthesis. The paper evaluates on router-level topologies sampled
// from the Rocketfuel dataset [4]; that dataset is not redistributable here,
// so RocketfuelLikeGenerator produces ISP-like graphs with the same node and
// link counts as the paper's Table II presets (and the same qualitative
// structure: a densely meshed core plus preferentially attached edge routers
// yielding a heavy-tailed degree distribution).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"
#include "util/rng.h"

namespace sdnprobe::topo {

struct GeneratorConfig {
  int node_count = 30;
  int link_count = 54;
  std::uint64_t seed = 1;
};

// Generates a connected ISP-like topology per the config. link_count is
// honored exactly when feasible (it must be >= node_count - 1 for
// connectivity and <= n*(n-1)/2); otherwise it is clamped.
Graph make_rocketfuel_like(const GeneratorConfig& config);

// The five Table II topology presets (switch & link counts from the paper).
struct TableTwoPreset {
  const char* name;
  int switches;
  int links;
  long rules;  // target flow-entry count the ruleset synthesizer aims for
};

// Presets in paper order: (4764,10,15), (33637,30,54), (82740,30,54),
// (205713,79,147), (358675,79,147).
const std::vector<TableTwoPreset>& table_two_presets();

}  // namespace sdnprobe::topo

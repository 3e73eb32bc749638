// Ruleset synthesis following the paper's evaluation methodology (§VIII):
// destination-based forwarding entries laid along all-pairs K-shortest paths
// (Eppstein-style route diversity via Yen's algorithm), plus lower-priority
// aggregate entries along shortest-path trees so the ruleset contains
// realistic overlapping-rule structure.
//
// Header layout (width W >= 8 + subnet_bits):
//   H[0 .. 8)                        destination switch id (exact in matches;
//                                    so at most 256 switches)
//   H[8 .. +subnet_bits)             subnet id, one per installed path
//   H[rest]                          host bits (wildcard in matches)
//
// Construction guarantees the resulting rule graph is loop-free:
//  - aggregate entries follow shortest-path trees (distance to destination
//    strictly decreases hop by hop);
//  - each specific subnet is installed along exactly one loopless path, and
//    distinct subnets have disjoint matches;
//  - optional set-field rewrites touch only host bits, never routing bits.
#pragma once

#include <cstdint>

#include "flow/ruleset.h"
#include "topo/graph.h"
#include "util/rng.h"

namespace sdnprobe::flow {

struct SynthesizerConfig {
  int header_width = 32;
  int subnet_bits = 12;
  // Total policy entries to aim for (aggregates + specifics). The actual
  // count lands within one path length of the target.
  long target_entry_count = 5000;
  // K for Yen's K-shortest-path route diversity.
  int k_paths = 3;
  // Install low-priority aggregate (destination-prefix) entries.
  bool aggregates = true;
  // Fraction of specific paths whose first hop rewrites host bits
  // (exercises set-field transform handling end to end).
  double set_field_fraction = 0.05;
  // Probability that a hop of a *shortest* (k=0) path additionally installs
  // a shortened-prefix rule (longest-prefix-match aggregation, as campus
  // routing tables have). Shortened rules overlap many subnets and create
  // the cross-flow rule-graph branching that Randomized SDNProbe's path
  // diversity relies on (§V-C). Only shortest paths get them so every rule
  // still moves packets strictly closer to the destination (loop freedom).
  double short_prefix_fraction = 0.25;
  std::uint64_t seed = 1;
};

// Builds a RuleSet over `topology` per the config.
RuleSet synthesize_ruleset(const topo::Graph& topology,
                           const SynthesizerConfig& config);

}  // namespace sdnprobe::flow

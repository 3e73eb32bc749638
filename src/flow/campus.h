// Synthetic stand-in for the paper's §VIII-A real dataset: "a part of the
// backbone network topology in a campus network" with two routing tables of
// 550 and 579 forwarding entries and overlapping-rule chains up to 65 deep.
//
// The real dataset is not public. This generator reproduces the two knobs
// that drive the paper's §VIII-A results — per-table entry counts and the
// maximum overlap-chain depth (which determines header-synthesis load) —
// as nested-prefix chains on a two-switch backbone segment.
#pragma once

#include <cstdint>

#include "flow/ruleset.h"

namespace sdnprobe::flow {

struct CampusConfig {
  int entries_table0 = 550;   // first routing table (backbone switch 0)
  int entries_table1 = 579;   // second routing table (backbone switch 1)
  int max_overlap_chain = 65; // deepest nested-prefix chain
  int header_width = 96;      // must exceed chain-id bits + max chain depth
  std::uint64_t seed = 7;
};

// Builds the two-switch campus backbone ruleset. Switch 0 forwards matched
// packets to switch 1; switch 1 delivers to its host port. Every entry has a
// non-empty input space (each chain level keeps the half-space its child
// does not claim).
RuleSet make_campus_ruleset(const CampusConfig& config);

}  // namespace sdnprobe::flow

// repair::corpus — serialized failure scenarios for regression replay.
//
// When a heal fails (or behaves surprisingly), the interesting artifact is
// the *world*, not the log: topology, ruleset, and injected faults. This
// module captures that world into a small line-oriented text format
// ("sdnprobe.scenario.v1") so failing cases land in bench/corpus/ and
// every ctest run replays them through the full detect → diagnose → patch
// → confirm loop (examples/replay_corpus.cpp).
//
// Format (one token-separated record per line, '#' comments allowed):
//
//   sdnprobe.scenario.v1
//   note <free text to end of line>
//   expect healed|unhealed|detected
//   width <header bits>
//   nodes <switch count>
//   edge <a> <b> <latency_s>
//   entry <switch> <table> <priority> <match> <set> <action> [<arg>]
//   fault entry <index> <spec tokens>
//   fault switch <switch> <spec tokens>
//
// `entry` lines are ordered; a fault's <index> refers to the i-th entry
// line (0-based), which is also the EntryId build_ruleset assigns — so a
// capture of a live network remaps its (possibly tombstoned) EntryIds to
// the dense replay numbering. <action> is output|drop|goto|controller with
// the port/table arg where applicable. Fault spec tokens are key=value:
//   kind=drop|misdirect|modify|detour  port=<p>  set=<ternary>
//   partner=<sw>  extra=<s>  period=<s>  duty=<f>  phase=<s>
//   target=<ternary>
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/fault.h"
#include "flow/entry.h"
#include "flow/ruleset.h"
#include "topo/graph.h"

namespace sdnprobe::repair {

struct ScenarioFault {
  bool is_switch = false;   // false: entry-level, keyed by entry index
  int entry_index = -1;     // index into Scenario::entries
  flow::SwitchId switch_id = -1;
  dataplane::FaultSpec spec;
};

struct Scenario {
  std::string note;
  // What the replay asserts: "healed" (auto-repair must clear it),
  // "unhealed" (a known-unfixable world: detection must flag, repair must
  // fail *cleanly* — every installed patch rolled back), "detected"
  // (detection only), or empty (replay just must not crash).
  std::string expect;
  int header_width = 32;
  int nodes = 0;
  std::vector<topo::Edge> edges;
  std::vector<flow::FlowEntry> entries;  // ids ignored; order is identity
  std::vector<ScenarioFault> faults;
};

// Serialization. parse/load return nullopt on any malformed line and on any
// reference outside the scenario: a width outside [1, 128], a negative node
// count, an edge endpoint or entry/fault switch outside [0, nodes), a
// negative table, a match or set field whose width differs from `width`, or
// a fault entry index past the entry lines (the corpus is hand-editable;
// silent best-effort parses would hide typos).
std::string serialize_scenario(const Scenario& s);
std::optional<Scenario> parse_scenario(const std::string& text);
bool save_scenario_file(const Scenario& s, const std::string& path);
std::optional<Scenario> load_scenario_file(const std::string& path);

// Captures the live world: topology + every non-removed, non-test entry of
// `rules` (EntryIds remapped to dense indices) + every registered fault
// whose entry survived the remap.
Scenario capture_scenario(const flow::RuleSet& rules,
                          const dataplane::FaultInjector& faults,
                          std::string note, std::string expect);

// Replay-side: rebuild the world. build_ruleset assigns EntryId i to entry
// line i; install_faults registers the scenario's faults against those ids.
flow::RuleSet build_ruleset(const Scenario& s);
void install_faults(const Scenario& s, dataplane::FaultInjector& injector);

}  // namespace sdnprobe::repair

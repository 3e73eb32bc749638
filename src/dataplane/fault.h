// Fault injection per the paper's switch failure model (§III-B).
//
// A switch is faulty when one or more of its flow entries execute
// incorrectly. Basic faults: drop, misdirect (wrong output port), modify
// (header rewrite). Non-persistent variants: intermittent (active only in
// periodic time windows) and targeting (affects only a sub-cube of the
// entry's match space). Advanced: colluding detour — the packet leaves the
// intended path at switch A and is re-injected at downstream colluder B,
// skipping everything in between (§III-B, [27]).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "flow/entry.h"
#include "hsa/ternary.h"
#include "sim/event_loop.h"

namespace sdnprobe::dataplane {

enum class FaultKind {
  kDrop,
  kMisdirect,
  kModify,
  kDetour,
};

// Built with the named factories below; the preferred spelling is
//   FaultSpec::Drop()
//   FaultSpec::Misdirect(port).intermittent(1.0, 0.5)
//   FaultSpec::Modify(set).targeting(cube)
//   FaultSpec::Detour(partner, extra_latency_s)
// The struct remains an aggregate for one more release so existing
// field-by-field construction keeps compiling; new code should not rely on
// that.
struct FaultSpec {
  FaultKind kind = FaultKind::kDrop;

  // kMisdirect: output port used instead of the entry's action port.
  flow::PortId misdirect_port = flow::kInvalidPort;

  // kModify: set-field applied to the packet header before forwarding
  // normally (width must equal the header width).
  hsa::TernaryString modify_set;

  // kDetour: colluding partner switch that re-injects the packet. The hops
  // in between on the intended path are skipped; extra_latency_s models the
  // alternate route's delay.
  flow::SwitchId detour_partner = -1;
  double detour_extra_latency_s = 0.0;

  // Intermittent fault: active only while
  //   fmod(now - phase_s, period_s) < duty_cycle * period_s.
  bool is_intermittent = false;
  double period_s = 1.0;
  double duty_cycle = 0.5;
  double phase_s = 0.0;

  // Targeting fault: affects only headers inside `target` (a sub-cube of
  // the entry's match space). Empty width (0) = affects all headers.
  hsa::TernaryString target;

  // --- Named factories (one per basic kind, §III-B). ---
  static FaultSpec Drop();
  static FaultSpec Misdirect(flow::PortId port);
  static FaultSpec Modify(hsa::TernaryString set);
  static FaultSpec Detour(flow::SwitchId partner, double extra_latency_s = 0.0);

  // --- Chainable non-persistent modifiers (compose freely). ---
  FaultSpec& intermittent(double period_seconds, double duty,
                          double phase_seconds = 0.0);
  FaultSpec& targeting(hsa::TernaryString cube);

  bool is_active(sim::SimTime now, const hsa::TernaryString& header) const;
};

// Registry of faulty entries for one network. Ground truth accessors are for
// evaluation only; detection algorithms never consult them.
//
// Faults attach at two granularities: per entry (the paper's model — one
// flow entry executes incorrectly) and per switch (hardware-level: every
// entry the switch matches misbehaves, including entries installed *after*
// the fault, which is what makes reinstall-style repairs fail against it).
// An entry-level fault shadows the switch-level one for that entry.
class FaultInjector {
 public:
  void add_fault(flow::EntryId entry, FaultSpec spec);
  void add_switch_fault(flow::SwitchId sw, FaultSpec spec);
  void clear();

  // The spec for an entry if it is faulty (regardless of current activity).
  const FaultSpec* fault_for(flow::EntryId entry) const;
  // The spec for a whole-switch fault, if one is registered.
  const FaultSpec* switch_fault_for(flow::SwitchId sw) const;

  bool switch_is_faulty(flow::SwitchId sw) const {
    return switch_faults_.count(sw) > 0;
  }

  // Ground truth: all faulty entry ids.
  std::vector<flow::EntryId> faulty_entries() const;
  // Ground truth: switches with whole-switch faults.
  std::vector<flow::SwitchId> faulty_switch_ids() const;

  std::size_t fault_count() const {
    return faults_.size() + switch_faults_.size();
  }

 private:
  std::unordered_map<flow::EntryId, FaultSpec> faults_;
  std::unordered_map<flow::SwitchId, FaultSpec> switch_faults_;
};

}  // namespace sdnprobe::dataplane

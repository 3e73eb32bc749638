// Packets flowing through the simulated data plane.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/entry.h"
#include "hsa/ternary.h"

namespace sdnprobe::dataplane {

struct Packet {
  // Concrete header (no wildcards).
  hsa::TernaryString header;
  // Non-zero for probe packets; lets the controller correlate PacketIn
  // events with the probes it injected. Carried out-of-band of the header,
  // like a controller-chosen cookie.
  std::uint64_t probe_id = 0;

  // Ground-truth trace of switches visited, in order. Written by the
  // simulator for tests and oracle checks; *never* read by any detection
  // algorithm (a real controller cannot observe it).
  std::vector<flow::SwitchId> trace;
  // Ground truth: entry ids that processed this packet, in order.
  std::vector<flow::EntryId> entry_trace;
  // Ground truth: set when any fault altered this packet's fate.
  bool tampered = false;
};

}  // namespace sdnprobe::dataplane

// Shared probe-round machinery for the baseline schemes: install test
// points, inject probes at the paper's rate (core::kProbeRateBytesPerS),
// wait core::kDefaultRoundGraceS for returns, tear down, and report which
// probes failed (missing or modified).
#pragma once

#include <cstdint>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "sim/event_loop.h"

namespace sdnprobe::baselines {

// Runs one send/collect round. failed[i] is true when probes[i] did not
// return or returned altered. `next_correlation_id` is advanced so stale
// returns from earlier rounds are never miscounted.
std::vector<bool> run_probe_round(const core::AnalysisSnapshot& snapshot,
                                  controller::Controller& ctrl,
                                  sim::EventLoop& loop,
                                  const std::vector<core::Probe>& probes,
                                  std::uint64_t& next_correlation_id);

}  // namespace sdnprobe::baselines

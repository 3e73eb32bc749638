// Per-rule test baseline (Chi et al. [12]; Monocle [31][32]), as
// characterized in §III-C/§VII: one test packet per flow entry, injected at
// the entry's previous-hop switch and captured at its next-hop switch. A
// failing probe cannot distinguish which of the three involved switches
// misbehaved, so all of them are blamed — zero false negatives on basic
// persistent faults, but false positives that grow with the fault count.
// No additional localization rounds are needed (fastest at high fault
// rates, Fig. 8(c)), but the probe count equals the rule count (Fig. 8(a)).
#pragma once

#include <cstdint>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "sim/event_loop.h"

namespace sdnprobe::baselines {

class PerRuleTest {
 public:
  PerRuleTest(const core::AnalysisSnapshot& snapshot,
              controller::Controller& ctrl, sim::EventLoop& loop);

  // One probe per testable rule.
  std::size_t probe_count() const {
    return static_cast<std::size_t>(graph_->vertex_count());
  }

  core::DetectionReport run();

 private:
  const core::AnalysisSnapshot* snapshot_;
  const core::RuleGraph* graph_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  core::ProbeEngine engine_;
  util::Rng rng_;
};

}  // namespace sdnprobe::baselines

// ATPG baseline (Zeng et al. [35]), as characterized in §III-C/§VII:
//
//  * Test packet generation reduces to minimum set cover over candidate
//    end-to-end ("host-to-host") legal paths and is solved with the
//    best-known greedy approximation — hence more probes than SDNProbe's
//    exact MLPC (Fig. 8(a) shows ~30% more).
//  * Fault localization is intersection-based: a switch is suspected faulty
//    when it lies on the intersection of two failing host-to-host paths.
//    When a failing path intersects no other failing path, ATPG sends
//    additional test packets over alternative candidate paths that share
//    switches with it; if no alternative can narrow the suspicion, the whole
//    failing path is flagged (the false-positive mode §VII describes).
//  * Probes can only be injected at a path's start (traditional-network
//    constraint): no mid-path injection, so localization recomputes and
//    re-sends full-prefix paths, making its detection delay the largest
//    (Fig. 8(b)(c)).
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

struct AtpgConfig {
  // Cap on the host-to-host candidate pool the greedy set cover draws from.
  std::size_t max_candidate_paths = 100000;
};

class Atpg {
 public:
  Atpg(const core::AnalysisSnapshot& snapshot, controller::Controller& ctrl,
       sim::EventLoop& loop, AtpgConfig config = {});

  // Greedy-MSC test packet count (generation only; Fig. 8(a)).
  std::size_t probe_count();

  // Full detect-and-localize run.
  core::DetectionReport run();

 private:
  // Greedy minimum set cover over the candidate pool; fills selected_.
  void generate();

  const core::AnalysisSnapshot* snapshot_;
  const core::RuleGraph* graph_;
  controller::Controller* ctrl_;
  sim::EventLoop* loop_;
  AtpgConfig config_;
  core::ProbeEngine engine_;
  util::Rng rng_;
  bool generated_ = false;
  std::vector<std::vector<core::VertexId>> candidates_;  // full pool
  std::vector<std::vector<core::VertexId>> selected_;    // greedy MSC result
};

}  // namespace sdnprobe::baselines

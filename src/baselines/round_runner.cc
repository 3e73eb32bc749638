#include "baselines/round_runner.h"

#include <unordered_map>

namespace sdnprobe::baselines {

std::vector<bool> run_probe_round(const core::AnalysisSnapshot& snapshot,
                                  controller::Controller& ctrl,
                                  sim::EventLoop& loop,
                                  const std::vector<core::Probe>& probes,
                                  std::uint64_t& next_correlation_id) {
  struct State {
    std::uint64_t id;
    bool returned = false;
    bool mismatched = false;
  };
  std::vector<State> states(probes.size());
  std::vector<controller::TestPointId> points;
  points.reserve(probes.size());
  std::unordered_map<std::uint64_t, std::size_t> by_id;

  for (std::size_t i = 0; i < probes.size(); ++i) {
    states[i].id = next_correlation_id++;
    by_id[states[i].id] = i;
    points.push_back(ctrl.install_test_point(probes[i].terminal_entry,
                                             probes[i].expected_return));
  }
  loop.run_until(loop.now() + 2.0 * dataplane::kControlLatencyS);

  ctrl.set_probe_return_handler(
      [&](std::uint64_t id, flow::SwitchId from, const dataplane::Packet& pk,
          sim::SimTime) {
        const auto it = by_id.find(id);
        if (it == by_id.end()) return;
        State& st = states[it->second];
        const core::Probe& p = probes[it->second];
        st.returned = true;
        const flow::SwitchId expect_sw =
            snapshot.rules().entry(p.terminal_entry).switch_id;
        if (from != expect_sw || !(pk.header == p.expected_return)) {
          st.mismatched = true;
        }
      });

  const double spacing = core::kProbeSizeBytes / core::kProbeRateBytesPerS;
  double t = loop.now();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    dataplane::Packet pk;
    pk.header = probes[i].header;
    pk.probe_id = states[i].id;
    const flow::SwitchId sw = probes[i].inject_switch;
    loop.schedule_at(t, [&ctrl, sw, pk]() { ctrl.send_packet(sw, pk); });
    t += spacing;
  }
  loop.run_until(t + core::kDefaultRoundGraceS);
  ctrl.set_probe_return_handler(nullptr);

  for (const auto& tp : points) ctrl.remove_test_point(tp);
  loop.run_until(loop.now() + 2.0 * dataplane::kControlLatencyS);

  std::vector<bool> failed(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    failed[i] = !states[i].returned || states[i].mismatched;
  }
  return failed;
}

}  // namespace sdnprobe::baselines

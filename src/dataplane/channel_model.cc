#include "dataplane/channel_model.h"

#include <algorithm>

#include "util/check.h"

namespace sdnprobe::dataplane {
namespace {

bool rate_ok(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

ChannelModel::ChannelModel(ChannelModelConfig config)
    : config_(config), rng_(config.seed) {
  SDNPROBE_CHECK(rate_ok(config_.link_loss));
  SDNPROBE_CHECK(rate_ok(config_.link_dup));
  SDNPROBE_CHECK(rate_ok(config_.control_loss));
  SDNPROBE_CHECK(rate_ok(config_.control_dup));
  SDNPROBE_CHECK_GE(config_.link_jitter_s, 0.0);
  SDNPROBE_CHECK_GE(config_.control_jitter_s, 0.0);
  auto& reg = telemetry::MetricsRegistry::global();
  tm_.link_drops = &reg.counter("channel.link_drops");
  tm_.link_dups = &reg.counter("channel.link_dups");
  tm_.control_drops = &reg.counter("channel.control_drops");
  tm_.control_dups = &reg.counter("channel.control_dups");
}

void ChannelModel::set_link_loss(flow::SwitchId a, flow::SwitchId b,
                                 double loss) {
  SDNPROBE_CHECK(rate_ok(loss));
  link_loss_[{std::min(a, b), std::max(a, b)}] = loss;
}

ChannelModel::Delivery ChannelModel::roll(double loss, double dup,
                                          double jitter_s) {
  Delivery d;
  if (loss > 0.0 && rng_.next_bool(loss)) {
    d.copies = 0;
    return d;
  }
  d.copies = (dup > 0.0 && rng_.next_bool(dup)) ? 2 : 1;
  if (jitter_s > 0.0) {
    for (int i = 0; i < d.copies; ++i) {
      d.extra_delay_s[i] = rng_.next_double() * jitter_s;
    }
  }
  return d;
}

ChannelModel::Delivery ChannelModel::on_link(flow::SwitchId from,
                                             flow::SwitchId to) {
  ++counters_.link_transmissions;
  double loss = config_.link_loss;
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find({std::min(from, to), std::max(from, to)});
    if (it != link_loss_.end()) loss = it->second;
  }
  const Delivery d = roll(loss, config_.link_dup, config_.link_jitter_s);
  if (d.copies == 0) {
    ++counters_.link_drops;
    tm_.link_drops->add();
  } else if (d.copies > 1) {
    ++counters_.link_dups;
    tm_.link_dups->add();
  }
  return d;
}

ChannelModel::Delivery ChannelModel::on_control() {
  ++counters_.control_transmissions;
  const Delivery d =
      roll(config_.control_loss, config_.control_dup, config_.control_jitter_s);
  if (d.copies == 0) {
    ++counters_.control_drops;
    tm_.control_drops->add();
  } else if (d.copies > 1) {
    ++counters_.control_dups;
    tm_.control_dups->add();
  }
  return d;
}

}  // namespace sdnprobe::dataplane

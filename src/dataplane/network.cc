#include "dataplane/network.h"

#include "util/check.h"
#include "util/logging.h"

namespace sdnprobe::dataplane {
namespace {

// Per-switch pipeline processing delay.
constexpr double kSwitchProcDelayS = 50e-6;
// Safety net against accidental forwarding loops in the simulator.
constexpr int kMaxHops = 128;

}  // namespace

Network::Network(const flow::RuleSet& rules, sim::EventLoop& loop,
                 NetworkConfig config)
    : rules_(&rules),
      loop_(&loop),
      channel_(config.channel),
      tables_(static_cast<std::size_t>(rules.switch_count())) {
  auto& reg = telemetry::MetricsRegistry::global();
  tm_.packet_outs = &reg.counter("dataplane.packet_outs");
  tm_.packet_ins = &reg.counter("dataplane.packet_ins");
  tm_.forwarded = &reg.counter("dataplane.packets_forwarded");
  tm_.dropped = &reg.counter("dataplane.packets_dropped");
  tm_.faults_applied = &reg.counter("dataplane.faults_applied");
  tm_.host_deliveries = &reg.counter("dataplane.host_deliveries");
  for (flow::SwitchId s = 0; s < rules.switch_count(); ++s) {
    const int n_tables = rules.table_count(s);
    auto& sw_tables = tables_[static_cast<std::size_t>(s)];
    sw_tables.resize(static_cast<std::size_t>(n_tables));
    for (flow::TableId t = 0; t < n_tables; ++t) {
      sw_tables[static_cast<std::size_t>(t)] = rules.table(s, t);
    }
  }
}

void Network::install_entries(std::span<const flow::FlowEntry> entries) {
  for (std::size_t a = 0; a < entries.size();) {
    const flow::FlowEntry& e = entries[a];
    std::size_t b = a + 1;
    while (b < entries.size() && entries[b].switch_id == e.switch_id &&
           entries[b].table_id == e.table_id) {
      ++b;
    }
    SDNPROBE_CHECK_GE(e.switch_id, 0);
    SDNPROBE_CHECK_LT(e.switch_id, static_cast<int>(tables_.size()));
    SDNPROBE_CHECK_GE(e.table_id, 0);
    for (std::size_t i = a; i < b; ++i) {
      SDNPROBE_CHECK_EQ(entries[i].match.width(), rules_->header_width())
          << "installed entry header width must match the network's ruleset";
    }
    auto& sw_tables = tables_[static_cast<std::size_t>(e.switch_id)];
    if (static_cast<std::size_t>(e.table_id) >= sw_tables.size()) {
      sw_tables.resize(static_cast<std::size_t>(e.table_id) + 1);
    }
    sw_tables[static_cast<std::size_t>(e.table_id)].insert(
        entries.subspan(a, b - a));
    a = b;
  }
}

void Network::remove_entries(flow::SwitchId sw, flow::TableId table,
                             std::span<const flow::EntryId> ids) {
  auto& sw_tables = tables_[static_cast<std::size_t>(sw)];
  if (static_cast<std::size_t>(table) >= sw_tables.size()) return;
  sw_tables[static_cast<std::size_t>(table)].erase(ids);
}

void Network::update_entry(flow::SwitchId sw, flow::TableId table,
                           flow::EntryId id,
                           const hsa::TernaryString& set_field,
                           const flow::Action& action) {
  auto& sw_tables = tables_[static_cast<std::size_t>(sw)];
  if (static_cast<std::size_t>(table) >= sw_tables.size()) return;
  sw_tables[static_cast<std::size_t>(table)].update_actions(id, set_field,
                                                            action);
}

void Network::transit(const ChannelModel::Delivery& d, double base_delay,
                      std::function<void()> deliver) {
  for (int i = 0; i < d.copies; ++i) {
    if (i + 1 == d.copies) {
      loop_->schedule_in(base_delay + d.extra_delay_s[i], std::move(deliver));
    } else {
      loop_->schedule_in(base_delay + d.extra_delay_s[i], deliver);
    }
  }
}

void Network::packet_out(flow::SwitchId sw, Packet p) {
  SDNPROBE_CHECK_GE(sw, 0);
  SDNPROBE_CHECK_LT(sw, static_cast<int>(tables_.size()));
  SDNPROBE_DCHECK_EQ(p.header.width(), rules_->header_width());
  ++counters_.packets_injected;
  tm_.packet_outs->add();
  transit(channel_.on_control(), kControlLatencyS,
          [this, sw, p = std::move(p)]() mutable { arrive(sw, std::move(p)); });
}

void Network::packet_out_batch(std::vector<BatchPacketOut> items) {
  // Each PacketOut leaves the controller at its own send time, so every
  // control-channel draw happens when it would under a packet_out call then.
  for (auto& it : items) {
    loop_->schedule_at(it.send_at,
                       [this, sw = it.sw, p = std::move(it.packet)]() mutable {
                         packet_out(sw, std::move(p));
                       });
  }
}

void Network::arrive(flow::SwitchId sw, Packet p) {
  if (static_cast<int>(p.trace.size()) >= kMaxHops) {
    // TTL stand-in: misdirection faults can bounce packets between two
    // switches; the hop limit disposes of them like TTL expiry would.
    ++counters_.hop_limit_drops;
    LOG_DEBUG << "packet exceeded hop limit at switch " << sw;
    return;
  }
  p.trace.push_back(sw);
  loop_->schedule_in(kSwitchProcDelayS, [this, sw, p = std::move(p)]() mutable {
    process(sw, std::move(p), 0);
  });
}

void Network::process(flow::SwitchId sw, Packet p, flow::TableId table) {
  const auto& sw_tables = tables_[static_cast<std::size_t>(sw)];
  if (static_cast<std::size_t>(table) >= sw_tables.size()) {
    ++counters_.table_misses;
    ++counters_.packets_dropped;
    tm_.dropped->add();
    return;
  }
  const flow::FlowEntry* e =
      sw_tables[static_cast<std::size_t>(table)].lookup(p.header);
  if (!e) {
    ++counters_.table_misses;
    ++counters_.packets_dropped;
    tm_.dropped->add();
    return;
  }
  p.entry_trace.push_back(e->id);

  // Fault hook: a faulty entry executes incorrectly (§III-B). An entry
  // fault shadows a whole-switch fault; the switch-level registration
  // applies to every entry the switch matches — including entries installed
  // after registration, which is why reinstalls cannot heal it.
  const FaultSpec* f = faults_.fault_for(e->id);
  if (!f) f = faults_.switch_fault_for(sw);
  if (f && f->is_active(loop_->now(), p.header)) {
    ++counters_.faults_applied;
    tm_.faults_applied->add();
    p.tampered = true;
    switch (f->kind) {
      case FaultKind::kDrop:
        ++counters_.packets_dropped;
        tm_.dropped->add();
        return;
      case FaultKind::kMisdirect:
        p.header = p.header.transform(e->set_field);
        emit(sw, f->misdirect_port, std::move(p));
        return;
      case FaultKind::kModify:
        // Corrupt the header, then continue with the entry's normal action.
        p.header = p.header.transform(f->modify_set);
        break;
      case FaultKind::kDetour: {
        // Tunnel to the colluding partner, skipping intermediate switches on
        // the intended path. The partner re-processes the packet normally.
        const flow::SwitchId partner = f->detour_partner;
        p.header = p.header.transform(e->set_field);
        loop_->schedule_in(
            f->detour_extra_latency_s + kSwitchProcDelayS,
            [this, partner, p = std::move(p)]() mutable {
              arrive(partner, std::move(p));
            });
        return;
      }
    }
  }

  // Normal OpenFlow 1.3 semantics.
  p.header = p.header.transform(e->set_field);
  switch (e->action.type) {
    case flow::ActionType::kOutput:
      emit(sw, e->action.out_port, std::move(p));
      return;
    case flow::ActionType::kDrop:
      ++counters_.packets_dropped;
      tm_.dropped->add();
      return;
    case flow::ActionType::kGotoTable:
      process(sw, std::move(p), e->action.next_table);
      return;
    case flow::ActionType::kToController:
      ++counters_.packet_ins;
      tm_.packet_ins->add();
      if (packet_in_handler_) {
        transit(channel_.on_control(), kControlLatencyS,
                [this, sw, p = std::move(p)] {
                  packet_in_handler_(sw, p, loop_->now());
                });
      }
      return;
  }
}

void Network::emit(flow::SwitchId sw, flow::PortId port, Packet p) {
  const auto peer = rules_->ports().peer_of(sw, port);
  if (peer.has_value()) {
    ++counters_.packets_forwarded;
    tm_.forwarded->add();
    const double latency =
        rules_->topology().edge_latency(sw, *peer).value_or(1e-3);
    transit(channel_.on_link(sw, *peer), latency,
            [this, peer = *peer, p = std::move(p)]() mutable {
              arrive(peer, std::move(p));
            });
    return;
  }
  // Host / edge port: the packet leaves the network.
  ++counters_.host_deliveries;
  tm_.host_deliveries->add();
  if (host_delivery_handler_) host_delivery_handler_(sw, p, loop_->now());
}

std::vector<flow::SwitchId> Network::faulty_switches() const {
  std::vector<std::uint8_t> seen(tables_.size(), 0);
  for (const flow::EntryId id : faults_.faulty_entries()) {
    if (id >= 0 && static_cast<std::size_t>(id) < rules_->entry_count()) {
      seen[static_cast<std::size_t>(rules_->entry(id).switch_id)] = 1;
    }
  }
  for (const flow::SwitchId sw : faults_.faulty_switch_ids()) {
    if (sw >= 0 && static_cast<std::size_t>(sw) < seen.size()) {
      seen[static_cast<std::size_t>(sw)] = 1;
    }
  }
  std::vector<flow::SwitchId> out;
  for (std::size_t s = 0; s < seen.size(); ++s) {
    if (seen[s]) out.push_back(static_cast<flow::SwitchId>(s));
  }
  return out;
}

int Network::table_count(flow::SwitchId sw) const {
  return static_cast<int>(tables_[static_cast<std::size_t>(sw)].size());
}

const flow::FlowTable& Network::runtime_table(flow::SwitchId sw,
                                              flow::TableId table) const {
  return tables_[static_cast<std::size_t>(sw)][static_cast<std::size_t>(table)];
}

}  // namespace sdnprobe::dataplane

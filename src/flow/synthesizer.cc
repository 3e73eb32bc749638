#include "flow/synthesizer.h"

#include <cassert>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

#include <unordered_set>

namespace sdnprobe::flow {
namespace {

constexpr int kAggregatePriority = 10;
// Specific-rule priority encodes the subnet-prefix depth so longest-prefix
// match falls out of OpenFlow priority ordering.
constexpr int kSpecificPriorityBase = 100;
// Header bits [0, kDstBits) carry the destination switch id.
constexpr int kDstBits = 8;

// Writes switch id `d` into header bits [0, kDstBits).
void set_dst_bits(hsa::TernaryString& t, int d) {
  for (int k = 0; k < kDstBits; ++k) {
    const bool one = (d >> (kDstBits - 1 - k)) & 1;
    t.set(k, one ? hsa::Trit::kOne : hsa::Trit::kZero);
  }
}

// Writes the first `prefix_len` bits of the subnet id (MSB-first) into the
// header; prefix_len == subnet_bits gives the exact subnet match.
void set_subnet_prefix(hsa::TernaryString& t, long subnet, int subnet_bits,
                       int prefix_len) {
  for (int k = 0; k < prefix_len; ++k) {
    const bool one = (subnet >> (subnet_bits - 1 - k)) & 1;
    t.set(kDstBits + k, one ? hsa::Trit::kOne : hsa::Trit::kZero);
  }
}

}  // namespace

RuleSet synthesize_ruleset(const topo::Graph& topology,
                           const SynthesizerConfig& config) {
  SDNPROBE_CHECK(config.header_width >= kDstBits + config.subnet_bits);
  SDNPROBE_CHECK(topology.node_count() <= (1 << kDstBits));
  RuleSet rs(topology, config.header_width);
  util::Rng rng(config.seed);
  const int n = topology.node_count();
  const auto& ports = rs.ports();

  // --- Aggregate entries: shortest-path trees toward every destination. ---
  if (config.aggregates) {
    // One per-(u,d) Dijkstra is O(n²) Dijkstras; past a few hundred switches
    // one in-tree per destination gives the same n² entries in n Dijkstras.
    // Gated so topologies at or below 256 switches (all Table II presets)
    // keep byte-identical rulesets: the tree's tie-breaks can pick a
    // different equal-cost first hop than the per-pair search.
    const bool use_dest_tree = n > 256;
    for (SwitchId d = 0; d < n; ++d) {
      hsa::TernaryString dst_match =
          hsa::TernaryString::wildcard(config.header_width);
      set_dst_bits(dst_match, d);
      std::vector<topo::NodeId> next_hop;
      if (use_dest_tree) next_hop = topology.shortest_path_tree(d);
      for (SwitchId u = 0; u < n; ++u) {
        FlowEntry e;
        e.switch_id = u;
        e.table_id = 0;
        e.priority = kAggregatePriority;
        e.match = dst_match;
        if (u == d) {
          e.action = Action::output(ports.host_port(d));
        } else if (use_dest_tree) {
          const topo::NodeId hop = next_hop[static_cast<std::size_t>(u)];
          if (hop < 0) continue;  // unreachable (never: connected)
          const auto port = ports.port_to(u, hop);
          assert(port.has_value());
          e.action = Action::output(*port);
        } else {
          const topo::Path p = topology.shortest_path(u, d);
          if (p.nodes.size() < 2) continue;  // unreachable (never: connected)
          const auto port = ports.port_to(u, p.nodes[1]);
          assert(port.has_value());
          e.action = Action::output(*port);
        }
        rs.add_entry(std::move(e));
      }
      if (static_cast<long>(rs.entry_count()) >= config.target_entry_count) {
        return rs;  // degenerate tiny targets: aggregates alone suffice
      }
    }
  }

  // --- Specific entries: one fresh subnet per installed path. ---
  std::vector<long> next_subnet(static_cast<std::size_t>(n), 0);
  const long subnet_cap = 1L << config.subnet_bits;
  std::map<std::pair<SwitchId, SwitchId>, std::vector<topo::Path>>
      path_cache;
  long exhausted_guard = 0;
  // Dedup of shortened-prefix installs: (switch, match hash set).
  std::vector<std::unordered_set<std::size_t>> short_seen(
      static_cast<std::size_t>(n));

  while (static_cast<long>(rs.entry_count()) < config.target_entry_count) {
    if (++exhausted_guard > 8 * config.target_entry_count + 1000) {
      LOG_WARN << "ruleset synthesis stalled at " << rs.entry_count()
               << " entries (target " << config.target_entry_count << ")";
      break;
    }
    const SwitchId s = static_cast<SwitchId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    const SwitchId d = static_cast<SwitchId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    if (s == d) continue;
    if (next_subnet[static_cast<std::size_t>(d)] >= subnet_cap) continue;

    auto& paths = path_cache[{s, d}];
    if (paths.empty()) {
      paths = topology.k_shortest_paths(s, d, config.k_paths);
      if (paths.empty()) continue;
    }
    const std::size_t path_idx = rng.pick_index(paths.size());
    const topo::Path& path = paths[path_idx];
    const bool is_shortest = (path_idx == 0);

    const long subnet = next_subnet[static_cast<std::size_t>(d)]++;
    hsa::TernaryString match =
        hsa::TernaryString::wildcard(config.header_width);
    set_dst_bits(match, d);
    set_subnet_prefix(match, subnet, config.subnet_bits, config.subnet_bits);

    const bool rewrite_first_hop =
        rng.next_bool(config.set_field_fraction) &&
        config.header_width >= kDstBits + config.subnet_bits + 4;

    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      const SwitchId u = path.nodes[i];
      Action action;
      if (i + 1 < path.nodes.size()) {
        const auto port = ports.port_to(u, path.nodes[i + 1]);
        assert(port.has_value());
        action = Action::output(*port);
      } else {
        action = Action::output(ports.host_port(u));
      }

      FlowEntry e;
      e.switch_id = u;
      e.table_id = 0;
      e.priority = kSpecificPriorityBase + config.subnet_bits;
      e.match = match;
      e.action = action;
      if (rewrite_first_hop && i == 0) {
        // Rewrite four host bits (routing bits untouched => still loop-free).
        hsa::TernaryString set =
            hsa::TernaryString::wildcard(config.header_width);
        const int base = kDstBits + config.subnet_bits;
        for (int k = 0; k < 4; ++k) {
          set.set(base + k, rng.next_bool(0.5) ? hsa::Trit::kOne
                                               : hsa::Trit::kZero);
        }
        e.set_field = set;
      }
      rs.add_entry(std::move(e));

      // Longest-prefix aggregation: shortest-path hops occasionally also
      // install a shortened-prefix rule covering a band of subnets. These
      // overlap other flows' rules, giving the rule graph cross-flow edges.
      if (is_shortest && rng.next_bool(config.short_prefix_fraction)) {
        const int prefix_len =
            config.subnet_bits / 2 +
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                std::max(1, config.subnet_bits / 2))));
        hsa::TernaryString short_match =
            hsa::TernaryString::wildcard(config.header_width);
        set_dst_bits(short_match, d);
        set_subnet_prefix(short_match, subnet, config.subnet_bits, prefix_len);
        if (short_seen[static_cast<std::size_t>(u)]
                .insert(short_match.hash())
                .second &&
            static_cast<long>(rs.entry_count()) <
                config.target_entry_count) {
          FlowEntry se;
          se.switch_id = u;
          se.table_id = 0;
          se.priority = kSpecificPriorityBase + prefix_len;
          se.match = short_match;
          se.action = action;
          rs.add_entry(std::move(se));
        }
      }
    }
  }
  return rs;
}

}  // namespace sdnprobe::flow

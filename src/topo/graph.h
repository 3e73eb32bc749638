// Switch-level network topology: an undirected weighted graph plus shortest-
// path machinery (Dijkstra, Yen's loopless K-shortest paths [18]) used by the
// ruleset synthesizer to lay flows along realistic routes.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace sdnprobe::topo {

using NodeId = int;

struct Edge {
  NodeId a = -1;
  NodeId b = -1;
  double latency_s = 1e-3;  // one-way propagation delay

  NodeId other(NodeId n) const { return n == a ? b : a; }
};

// A loop-free node sequence with its total latency.
struct Path {
  std::vector<NodeId> nodes;
  double cost = 0.0;

  bool empty() const { return nodes.empty(); }
  bool operator==(const Path& o) const { return nodes == o.nodes; }
};

// Undirected multigraph-free graph over nodes 0..node_count-1.
class Graph {
 public:
  explicit Graph(int node_count = 0);

  int node_count() const { return static_cast<int>(adjacency_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  // Adds an undirected edge; parallel edges and self-loops are rejected
  // (returns false). Latency must be positive.
  bool add_edge(NodeId a, NodeId b, double latency_s = 1e-3);

  bool has_edge(NodeId a, NodeId b) const;
  std::optional<double> edge_latency(NodeId a, NodeId b) const;

  // Neighbor node ids of n.
  const std::vector<NodeId>& neighbors(NodeId n) const;
  const std::vector<Edge>& edges() const { return edges_; }
  int degree(NodeId n) const {
    return static_cast<int>(adjacency_[static_cast<std::size_t>(n)].size());
  }

  bool is_connected() const;

  // Single-source shortest path by latency. Unreachable => empty path.
  Path shortest_path(NodeId src, NodeId dst) const;

  // Shortest-path in-tree toward `root`: next[u] is u's first hop on a
  // latency-shortest path from u to root (next[root] = root, -1 when
  // unreachable). One Dijkstra serves every source for a fixed destination
  // — the ruleset synthesizer's aggregate tables use this instead of one
  // shortest_path() call per (source, destination) pair.
  std::vector<NodeId> shortest_path_tree(NodeId root) const;

  // Yen's algorithm: up to k loopless shortest paths in nondecreasing cost.
  std::vector<Path> k_shortest_paths(NodeId src, NodeId dst, int k) const;

  std::string to_string() const;

 private:
  // Dijkstra with optional removed nodes/edges (for Yen's spur computation).
  Path shortest_path_filtered(
      NodeId src, NodeId dst, const std::vector<std::uint8_t>& node_banned,
      const std::vector<std::vector<std::uint8_t>>* edge_banned) const;

  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace sdnprobe::topo

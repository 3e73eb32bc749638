#include "topo/graph.h"

#include <algorithm>
#include <queue>
#include <set>
#include <sstream>

#include "util/check.h"

namespace sdnprobe::topo {

Graph::Graph(int node_count)
    : adjacency_(static_cast<std::size_t>(node_count)) {}

bool Graph::add_edge(NodeId a, NodeId b, double latency_s) {
  SDNPROBE_CHECK(a >= 0 && a < node_count() && b >= 0 && b < node_count());
  if (a == b || latency_s <= 0.0) return false;
  if (has_edge(a, b)) return false;
  edges_.push_back(Edge{a, b, latency_s});
  adjacency_[static_cast<std::size_t>(a)].push_back(b);
  adjacency_[static_cast<std::size_t>(b)].push_back(a);
  return true;
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  const auto& adj = adjacency_[static_cast<std::size_t>(a)];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

std::optional<double> Graph::edge_latency(NodeId a, NodeId b) const {
  for (const auto& e : edges_) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return e.latency_s;
  }
  return std::nullopt;
}

const std::vector<NodeId>& Graph::neighbors(NodeId n) const {
  return adjacency_[static_cast<std::size_t>(n)];
}

bool Graph::is_connected() const {
  if (node_count() == 0) return true;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(node_count()), 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  int visited = 1;
  while (!q.empty()) {
    const NodeId n = q.front();
    q.pop();
    for (NodeId m : neighbors(n)) {
      if (!seen[static_cast<std::size_t>(m)]) {
        seen[static_cast<std::size_t>(m)] = 1;
        ++visited;
        q.push(m);
      }
    }
  }
  return visited == node_count();
}

std::vector<NodeId> Graph::shortest_path_tree(NodeId root) const {
  const int n = node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  std::vector<NodeId> next(static_cast<std::size_t>(n), -1);
  if (root < 0 || root >= n) return next;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(root)] = 0.0;
  next[static_cast<std::size_t>(root)] = root;
  pq.emplace(0.0, root);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (NodeId v : neighbors(u)) {
      const double w = *edge_latency(u, v);
      // Strict relaxation: the first settled parent at a given distance
      // wins, which is deterministic (heap pops ties by lowest node id).
      if (dist[static_cast<std::size_t>(u)] + w <
          dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + w;
        next[static_cast<std::size_t>(v)] = u;  // v's hop toward root
        pq.emplace(dist[static_cast<std::size_t>(v)], v);
      }
    }
  }
  return next;
}

Path Graph::shortest_path(NodeId src, NodeId dst) const {
  const std::vector<std::uint8_t> none(
      static_cast<std::size_t>(node_count()), 0);
  return shortest_path_filtered(src, dst, none, nullptr);
}

Path Graph::shortest_path_filtered(
    NodeId src, NodeId dst, const std::vector<std::uint8_t>& node_banned,
    const std::vector<std::vector<std::uint8_t>>* edge_banned) const {
  const int n = node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  std::vector<NodeId> prev(static_cast<std::size_t>(n), -1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  if (node_banned[static_cast<std::size_t>(src)] ||
      node_banned[static_cast<std::size_t>(dst)]) {
    return {};
  }
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (NodeId v : neighbors(u)) {
      if (node_banned[static_cast<std::size_t>(v)]) continue;
      if (edge_banned &&
          (*edge_banned)[static_cast<std::size_t>(u)]
                        [static_cast<std::size_t>(v)]) {
        continue;
      }
      const double w = *edge_latency(u, v);
      if (dist[static_cast<std::size_t>(u)] + w <
          dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + w;
        prev[static_cast<std::size_t>(v)] = u;
        pq.emplace(dist[static_cast<std::size_t>(v)], v);
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == kInf) return {};
  Path p;
  p.cost = dist[static_cast<std::size_t>(dst)];
  for (NodeId at = dst; at != -1; at = prev[static_cast<std::size_t>(at)]) {
    p.nodes.push_back(at);
  }
  std::reverse(p.nodes.begin(), p.nodes.end());
  return p;
}

std::vector<Path> Graph::k_shortest_paths(NodeId src, NodeId dst,
                                          int k) const {
  std::vector<Path> result;
  if (k <= 0) return result;
  Path first = shortest_path(src, dst);
  if (first.empty()) return result;
  result.push_back(first);

  // Candidate pool ordered by cost, deduplicated by node sequence.
  auto cmp = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.nodes < b.nodes;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  const std::size_t nsz = static_cast<std::size_t>(node_count());
  while (static_cast<int>(result.size()) < k) {
    const Path& last = result.back();
    for (std::size_t i = 0; i + 1 < last.nodes.size(); ++i) {
      const NodeId spur = last.nodes[i];
      std::vector<NodeId> root(last.nodes.begin(),
                               last.nodes.begin() +
                                   static_cast<std::ptrdiff_t>(i) + 1);
      // Ban edges that would recreate an already-found path with this root,
      // and ban root nodes (except the spur) to keep paths loopless.
      std::vector<std::vector<std::uint8_t>> edge_banned(
          nsz, std::vector<std::uint8_t>(nsz, 0));
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(root.begin(), root.end(), p.nodes.begin())) {
          if (p.nodes.size() > i + 1) {
            const NodeId u = p.nodes[i];
            const NodeId v = p.nodes[i + 1];
            edge_banned[static_cast<std::size_t>(u)]
                       [static_cast<std::size_t>(v)] = 1;
            edge_banned[static_cast<std::size_t>(v)]
                       [static_cast<std::size_t>(u)] = 1;
          }
        }
      }
      std::vector<std::uint8_t> node_banned(nsz, 0);
      for (std::size_t j = 0; j < i; ++j) {
        node_banned[static_cast<std::size_t>(root[j])] = 1;
      }
      const Path spur_path =
          shortest_path_filtered(spur, dst, node_banned, &edge_banned);
      if (spur_path.empty()) continue;
      Path total;
      total.nodes = root;
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin() + 1,
                         spur_path.nodes.end());
      total.cost = spur_path.cost;
      for (std::size_t j = 0; j + 1 <= i; ++j) {
        total.cost += *edge_latency(last.nodes[j], last.nodes[j + 1]);
      }
      candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::string Graph::to_string() const {
  std::ostringstream out;
  out << "Graph(nodes=" << node_count() << ", edges=" << edge_count() << ")";
  return out.str();
}

}  // namespace sdnprobe::topo

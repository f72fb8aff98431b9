#include "graph/bfs.h"

#include <algorithm>
#include <queue>

namespace mobile::graph {

std::vector<int> bfsDistances(const Graph& g, NodeId source) {
  std::vector<int> dist(static_cast<std::size_t>(g.nodeCount()), -1);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const auto& nb : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(nb.node)] < 0) {
        dist[static_cast<std::size_t>(nb.node)] =
            dist[static_cast<std::size_t>(v)] + 1;
        q.push(nb.node);
      }
    }
  }
  return dist;
}

RootedTree bfsTree(const Graph& g, NodeId source) {
  std::vector<NodeId> parent(static_cast<std::size_t>(g.nodeCount()), -1);
  std::vector<char> seen(static_cast<std::size_t>(g.nodeCount()), 0);
  std::queue<NodeId> q;
  seen[static_cast<std::size_t>(source)] = 1;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const auto& nb : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(nb.node)]) {
        seen[static_cast<std::size_t>(nb.node)] = 1;
        parent[static_cast<std::size_t>(nb.node)] = v;
        q.push(nb.node);
      }
    }
  }
  return RootedTree::fromParents(source, parent, g);
}

int eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfsDistances(g, source);
  int ecc = 0;
  for (const int d : dist) {
    if (d < 0) return -1;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(const Graph& g) {
  int dia = 0;
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const int ecc = eccentricity(g, v);
    if (ecc < 0) return -1;
    dia = std::max(dia, ecc);
  }
  return dia;
}

}  // namespace mobile::graph

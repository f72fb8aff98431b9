#include "graph/tree_packing.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

namespace mobile::graph {

PackingStats analyzePacking(const TreePacking& p, const Graph& g) {
  PackingStats s;
  s.treeCount = p.trees.size();
  std::vector<std::size_t> load(static_cast<std::size_t>(g.edgeCount()), 0);
  for (const auto& t : p.trees) {
    const bool spans = t.spanning(g.nodeCount());
    if (spans) {
      ++s.spanningCount;
      s.maxDepth = std::max(s.maxDepth, t.height());
    }
    for (const EdgeId e : t.edges()) ++load[static_cast<std::size_t>(e)];
  }
  for (const std::size_t l : load) s.maxLoad = std::max(s.maxLoad, l);
  bool sameRoot = true;
  for (const auto& t : p.trees)
    if (t.root != p.commonRoot) sameRoot = false;
  s.weakValid = sameRoot && s.treeCount > 0 &&
                10 * s.spanningCount >= 9 * s.treeCount;
  return s;
}

TreePacking cliqueStarPacking(const Graph& g) {
  const NodeId n = g.nodeCount();
  TreePacking p;
  p.commonRoot = 0;
  p.trees.reserve(static_cast<std::size_t>(n));
  for (NodeId center = 0; center < n; ++center) {
    std::vector<NodeId> parent(static_cast<std::size_t>(n), -1);
    if (center == 0) {
      for (NodeId v = 1; v < n; ++v) parent[static_cast<std::size_t>(v)] = 0;
    } else {
      // Root at 0: path 0 <- center <- everyone else.
      parent[static_cast<std::size_t>(center)] = 0;
      for (NodeId v = 1; v < n; ++v)
        if (v != center) parent[static_cast<std::size_t>(v)] = center;
    }
    p.trees.push_back(RootedTree::fromParents(0, parent, g));
  }
  return p;
}

namespace {

/// Depth-capped Prim: grows the tree by the globally cheapest crossing edge
/// whose tree endpoint still has depth < depthCap.  Our stand-in for the
/// Lemma C.1 shallow-tree oracle: weight-greedy (so the multiplicative-
/// weights outer loop spreads load) while respecting the depth budget.
/// Nodes unreachable within the cap are left out (callers verify spanning).
RootedTree shallowLightTree(const Graph& g, NodeId root,
                            const std::vector<double>& weight, int depthCap) {
  const std::size_t n = static_cast<std::size_t>(g.nodeCount());
  std::vector<NodeId> parent(n, -1);
  std::vector<int> depth(n, -1);
  depth[static_cast<std::size_t>(root)] = 0;

  using Item = std::tuple<double, NodeId, NodeId>;  // weight, from, to
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  auto relax = [&](NodeId v) {
    if (depth[static_cast<std::size_t>(v)] >= depthCap) return;
    for (const auto& nb : g.neighbors(v)) {
      if (depth[static_cast<std::size_t>(nb.node)] >= 0) continue;
      pq.push({weight[static_cast<std::size_t>(nb.edge)], v, nb.node});
    }
  };
  relax(root);
  while (!pq.empty()) {
    const auto [w, from, to] = pq.top();
    pq.pop();
    (void)w;
    if (depth[static_cast<std::size_t>(to)] >= 0) continue;  // stale
    parent[static_cast<std::size_t>(to)] = from;
    depth[static_cast<std::size_t>(to)] =
        depth[static_cast<std::size_t>(from)] + 1;
    relax(to);
  }
  return RootedTree::fromParents(root, parent, g);
}

}  // namespace

TreePacking greedyLowDepthPacking(const Graph& g, int k, NodeId root,
                                  int depthCap) {
  const std::size_t m = static_cast<std::size_t>(g.edgeCount());
  const double n = static_cast<double>(g.nodeCount());
  // Theorem C.2 parameters: eta target O(log n), a = (alpha+2)/(alpha+1)
  // with alpha = O(log n) the shallow-tree approximation factor.
  const double eta = std::max(1.0, std::log2(std::max(2.0, n)));
  const double alpha = std::max(1.0, std::log2(std::max(2.0, n)));
  const double a = (alpha + 2.0) / (alpha + 1.0);

  // A load is bumped at most once per tree, so h <= k; tabulating
  // a^{h/eta} once turns the per-edge refresh from two std::pow calls
  // into two lookups.  The table entries are the exact std::pow values
  // the untabulated code computed (same argument doubles), so weights --
  // and therefore trees -- are bit-identical to the historical oracle.
  std::vector<double> powTable(static_cast<std::size_t>(k) + 2);
  for (std::size_t j = 0; j < powTable.size(); ++j)
    powTable[j] = std::pow(a, static_cast<double>(j) / eta);

  std::vector<int> load(m, 0);
  std::vector<double> weight(m);
  TreePacking p;
  p.commonRoot = root;
  p.trees.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    for (std::size_t e = 0; e < m; ++e) {
      const std::size_t h = static_cast<std::size_t>(load[e]);
      weight[e] = powTable[h + 1] - powTable[h];
    }
    RootedTree t = shallowLightTree(g, root, weight, depthCap);
    for (const EdgeId e : t.edges()) ++load[static_cast<std::size_t>(e)];
    p.trees.push_back(std::move(t));
  }
  return p;
}

TreePacking randomPartitionPacking(const Graph& g, int k, NodeId root,
                                   util::Rng& rng) {
  const std::size_t m = static_cast<std::size_t>(g.edgeCount());
  std::vector<int> color(m);
  for (auto& c : color)
    c = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));

  TreePacking p;
  p.commonRoot = root;
  for (int i = 0; i < k; ++i) {
    // BFS over edges of color i only.
    const std::size_t n = static_cast<std::size_t>(g.nodeCount());
    std::vector<NodeId> parent(n, -1);
    std::vector<char> seen(n, 0);
    std::queue<NodeId> q;
    q.push(root);
    seen[static_cast<std::size_t>(root)] = 1;
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (const auto& nb : g.neighbors(v)) {
        if (color[static_cast<std::size_t>(nb.edge)] != i) continue;
        if (seen[static_cast<std::size_t>(nb.node)]) continue;
        seen[static_cast<std::size_t>(nb.node)] = 1;
        parent[static_cast<std::size_t>(nb.node)] = v;
        q.push(nb.node);
      }
    }
    p.trees.push_back(RootedTree::fromParents(root, parent, g));
  }
  return p;
}

}  // namespace mobile::graph

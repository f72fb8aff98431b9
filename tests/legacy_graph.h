// The pre-CSR reference graph, preserved verbatim for differential testing.
//
// This is the seed engine's Graph: per-node adjacency vectors plus an
// unordered_map endpoint->edge index, with the fixed arc convention
// edge e = (u, v), u < v => arc 2e (u -> v) and arc 2e+1 (v -> u).
// tests/test_graph_csr.cc builds every random topology through BOTH this
// class and the CSR Graph and asserts adjacency order, lookups, degrees,
// and structural fingerprints agree exactly.  Header-only test oracle.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mobile::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using ArcId = std::int32_t;

class LegacyGraph {
 public:
  struct Edge {
    NodeId u = -1;  // u < v invariant
    NodeId v = -1;
  };

  LegacyGraph() = default;
  explicit LegacyGraph(NodeId n) : adjacency_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] NodeId nodeCount() const {
    return static_cast<NodeId>(adjacency_.size());
  }
  [[nodiscard]] EdgeId edgeCount() const {
    return static_cast<EdgeId>(edges_.size());
  }
  [[nodiscard]] ArcId arcCount() const { return 2 * edgeCount(); }

  /// Adds edge (u, v); returns its id.  Parallel edges and loops rejected.
  EdgeId addEdge(NodeId u, NodeId v) {
    assert(u != v && "self loops not supported");
    assert(u >= 0 && v >= 0 && u < nodeCount() && v < nodeCount());
    assert(!hasEdge(u, v) && "parallel edges not supported");
    if (u > v) std::swap(u, v);
    const EdgeId id = edgeCount();
    edges_.push_back({u, v});
    adjacency_[static_cast<std::size_t>(u)].push_back({v, id});
    adjacency_[static_cast<std::size_t>(v)].push_back({u, id});
    edgeIndex_.emplace(pairKey(u, v), id);
    return id;
  }

  [[nodiscard]] bool hasEdge(NodeId u, NodeId v) const {
    return edgeBetween(u, v) >= 0;
  }
  /// -1 if none.
  [[nodiscard]] EdgeId edgeBetween(NodeId u, NodeId v) const {
    if (u < 0 || v < 0 || u >= nodeCount() || v >= nodeCount()) return -1;
    if (u > v) std::swap(u, v);
    const auto it = edgeIndex_.find(pairKey(u, v));
    return it != edgeIndex_.end() ? it->second : -1;
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }

  struct Neighbor {
    NodeId node;
    EdgeId edge;
  };
  [[nodiscard]] const std::vector<Neighbor>& neighbors(NodeId v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::size_t degree(NodeId v) const {
    return adjacency_[static_cast<std::size_t>(v)].size();
  }

  // --- arc helpers (fixed 2e / 2e+1 convention) --------------------------
  [[nodiscard]] ArcId arcFromTo(NodeId from, NodeId to) const {
    const EdgeId e = edgeBetween(from, to);
    assert(e >= 0);
    const Edge& ed = edge(e);
    return (ed.u == from) ? 2 * e : 2 * e + 1;
  }
  [[nodiscard]] NodeId arcSource(ArcId a) const {
    const Edge& e = edge(a / 2);
    return (a % 2 == 0) ? e.u : e.v;
  }
  [[nodiscard]] NodeId arcTarget(ArcId a) const {
    const Edge& e = edge(a / 2);
    return (a % 2 == 0) ? e.v : e.u;
  }
  [[nodiscard]] static ArcId reverseArc(ArcId a) { return a ^ 1; }
  [[nodiscard]] static EdgeId arcEdge(ArcId a) { return a / 2; }

 private:
  [[nodiscard]] static std::uint64_t pairKey(NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
           static_cast<std::uint32_t>(v);
  }

  std::vector<Edge> edges_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::unordered_map<std::uint64_t, EdgeId> edgeIndex_;
};

/// Same digest as structuralFingerprint(const Graph&), over the legacy
/// layout -- the differential harness asserts the two engines agree.
[[nodiscard]] inline std::uint64_t structuralFingerprint(const LegacyGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  };
  fold(static_cast<std::uint64_t>(g.nodeCount()));
  for (EdgeId e = 0; e < g.edgeCount(); ++e) {
    const LegacyGraph::Edge& ed = g.edge(e);
    fold((static_cast<std::uint64_t>(static_cast<std::uint32_t>(ed.u)) << 32) |
         static_cast<std::uint32_t>(ed.v));
  }
  return h;
}

}  // namespace mobile::graph

// The CSR graph's differential gate (ISSUE 6).
//
// The legacy adjacency-vector Graph (preserved as graph::LegacyGraph in
// tests/legacy_graph.h) is the reference: 200 random graphs spanning
// n = 0..60, four density bands, and shuffled edge-insertion orders are
// built through BOTH layouts from the same edge sequence, and every
// observable surface must agree -- adjacency iteration order (the contract
// that keeps every algorithm fingerprint bit-identical), degrees,
// edgeBetween / arcFromTo lookups, arc endpoint/edge resolution, and
// structuralFingerprint.  The CSR arc
// convention (ids are adjacency offsets) is checked for internal
// consistency against the legacy 2e/2e+1 convention's *semantics*: ids
// differ, but source, target, owning edge, and reversal must describe the
// same communication surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "legacy_graph.h"
#include "util/rng.h"

namespace mobile::graph {
namespace {

struct BuiltPair {
  Graph csr;
  LegacyGraph legacy;
};

/// Builds both layouts from one random edge sequence: all candidate pairs
/// of an n-node graph, shuffled, each kept with probability `p`, inserted
/// in shuffled order (insertion order is exactly what the CSR layout must
/// reproduce).
BuiltPair randomPair(NodeId n, double p, util::Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) pairs.push_back({u, v});
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(rng.below(i))]);
  BuiltPair b{Graph(n), LegacyGraph(n)};
  for (const auto& [u, v] : pairs) {
    if (!rng.chance(p)) continue;
    // Present each edge with randomized endpoint order; both layouts
    // normalize to u < v.
    const bool flip = rng.chance(0.5);
    const EdgeId ec = b.csr.addEdge(flip ? v : u, flip ? u : v);
    const EdgeId el = b.legacy.addEdge(flip ? v : u, flip ? u : v);
    EXPECT_EQ(ec, el) << "edge ids must assign identically";
  }
  return b;
}

void expectEquivalent(const Graph& g, const LegacyGraph& ref,
                      util::Rng& rng) {
  ASSERT_EQ(g.nodeCount(), ref.nodeCount());
  ASSERT_EQ(g.edgeCount(), ref.edgeCount());
  ASSERT_EQ(g.arcCount(), ref.arcCount());
  EXPECT_EQ(structuralFingerprint(g), structuralFingerprint(ref));

  for (EdgeId e = 0; e < g.edgeCount(); ++e) {
    EXPECT_EQ(g.edge(e).u, ref.edge(e).u);
    EXPECT_EQ(g.edge(e).v, ref.edge(e).v);
  }

  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    ASSERT_EQ(g.degree(v), ref.degree(v)) << "node " << v;
    const auto nbs = g.neighbors(v);
    const auto& want = ref.neighbors(v);
    ASSERT_EQ(nbs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Iteration order IS the contract: algorithms round-robin, sample,
      // and index neighbors by adjacency position.
      EXPECT_EQ(nbs[i].node, want[i].node) << v << "[" << i << "]";
      EXPECT_EQ(nbs[i].edge, want[i].edge) << v << "[" << i << "]";
      // CSR arc semantics must describe the same directed side the legacy
      // convention assigns, id values aside.
      const ArcId a = nbs.firstArc() + static_cast<ArcId>(i);
      const ArcId la = ref.arcFromTo(v, want[i].node);
      EXPECT_EQ(g.arcSource(a), ref.arcSource(la));
      EXPECT_EQ(g.arcTarget(a), ref.arcTarget(la));
      EXPECT_EQ(g.arcEdge(a), LegacyGraph::arcEdge(la));
      EXPECT_EQ(g.arcFromTo(v, want[i].node), a);
      EXPECT_EQ(g.reverseArc(a), g.arcFromTo(want[i].node, v));
      EXPECT_EQ(g.reverseArc(g.reverseArc(a)), a);
    }
  }

  // arcOfEdge must agree with the legacy direction convention: dir 0 is
  // the u -> v arc (u < v), dir 1 the reverse.
  for (EdgeId e = 0; e < g.edgeCount(); ++e) {
    EXPECT_EQ(g.arcSource(g.arcOfEdge(e, 0)), g.edge(e).u);
    EXPECT_EQ(g.arcTarget(g.arcOfEdge(e, 0)), g.edge(e).v);
    EXPECT_EQ(g.arcSource(g.arcOfEdge(e, 1)), g.edge(e).v);
    EXPECT_EQ(g.arcTarget(g.arcOfEdge(e, 1)), g.edge(e).u);
    EXPECT_EQ(g.arcEdge(g.arcOfEdge(e, 0)), e);
    EXPECT_EQ(g.arcEdge(g.arcOfEdge(e, 1)), e);
  }

  // Random membership probes, hits and misses alike.
  const int probes = std::max<int>(16, g.nodeCount() * 2);
  for (int i = 0; i < probes; ++i) {
    if (g.nodeCount() == 0) break;
    const auto u = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(g.nodeCount())));
    const auto v = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(g.nodeCount())));
    EXPECT_EQ(g.edgeBetween(u, v), ref.edgeBetween(u, v))
        << u << "-" << v;
    EXPECT_EQ(g.hasEdge(u, v), ref.hasEdge(u, v));
  }
  // Out-of-range probes answer "no edge" rather than tripping anything.
  EXPECT_EQ(g.edgeBetween(-1, 0), -1);
  EXPECT_EQ(g.edgeBetween(0, g.nodeCount()), -1);
}

TEST(GraphCsrDifferential, TwoHundredRandomGraphsMatchLegacyExactly) {
  constexpr double kDensities[] = {0.08, 0.25, 0.55, 0.95};
  util::Rng rng(20230725);
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<NodeId>(rng.below(61));  // includes n = 0, 1
    const double p = kDensities[static_cast<std::size_t>(i) % 4];
    BuiltPair b = randomPair(n, p, rng);
    SCOPED_TRACE("graph " + std::to_string(i) + " n=" + std::to_string(n) +
                 " p=" + std::to_string(p));
    expectEquivalent(b.csr, b.legacy, rng);
  }
}

TEST(GraphCsrDifferential, EmptyGraph) {
  const Graph g;
  const LegacyGraph ref;
  EXPECT_EQ(g.nodeCount(), 0);
  EXPECT_EQ(g.arcCount(), 0);
  EXPECT_EQ(g.minDegree(), 0u);
  EXPECT_TRUE(g.isConnected());  // vacuously, matching the legacy engine
  EXPECT_EQ(structuralFingerprint(g), structuralFingerprint(ref));
  g.finalize();
  EXPECT_TRUE(g.finalized());
}

TEST(GraphCsrDifferential, SingleNode) {
  const Graph g(1);
  const LegacyGraph ref(1);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_EQ(g.firstOutArc(0), 0);
  EXPECT_EQ(g.edgeBetween(0, 0), -1);
  EXPECT_EQ(structuralFingerprint(g), structuralFingerprint(ref));
}

TEST(GraphCsrDifferential, SelfLoopsAreRejected) {
  Graph g(3);
  g.addEdge(0, 1);
  EXPECT_DEBUG_DEATH(g.addEdge(2, 2), "self loops");
  EXPECT_DEBUG_DEATH(g.addEdge(0, 0), "self loops");
}

TEST(GraphCsrDifferential, MutationAfterReadsRebuildsConsistently) {
  // Lazy finalize: interleave reads (forcing builds) with further adds and
  // check the final layout equals a straight-line construction.
  Graph incremental(12);
  Graph oneshot(12);
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {3, 2}, {1, 2}, {4, 0}, {5, 9}, {10, 4}, {7, 8}, {11, 3}};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    incremental.addEdge(edges[i].first, edges[i].second);
    if (i % 2 == 0) {
      // Interleaved read: builds the CSR arrays, which the next addEdge
      // must invalidate.
      ASSERT_GE(incremental.degree(edges[i].first), 1u);
      EXPECT_TRUE(incremental.finalized());
    }
    oneshot.addEdge(edges[i].first, edges[i].second);
  }
  EXPECT_EQ(structuralFingerprint(incremental),
            structuralFingerprint(oneshot));
  for (NodeId v = 0; v < 12; ++v) {
    const auto a = incremental.neighbors(v);
    const auto b = oneshot.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << v;
    EXPECT_EQ(a.firstArc(), b.firstArc()) << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].edge, b[i].edge);
    }
  }
}

}  // namespace
}  // namespace mobile::graph

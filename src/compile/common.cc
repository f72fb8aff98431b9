#include "compile/common.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace mobile::compile {

int compiledRounds(std::int64_t total) {
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  if (total > kMax)
    throw std::overflow_error("compiles to " + std::to_string(total) +
                              " rounds (at most " + std::to_string(kMax) +
                              ")");
  return static_cast<int>(total);
}

namespace {

/// Exclusive prefix sum over `counts`, in place, returning the total.
/// counts[i] becomes the offset of slot i; the caller appends a final
/// total entry.
std::uint32_t exclusiveScan(std::vector<std::uint32_t>& counts) {
  std::uint32_t total = 0;
  for (auto& c : counts) {
    const std::uint32_t here = c;
    c = total;
    total += here;
  }
  return total;
}

/// One node's belief about one tree, as either source stores it.
struct Belief {
  NodeId parent;
  int depth;
  const std::vector<NodeId>& children;
};

/// Fills pk's per-(node, tree) arrays -- parentFlat, depthFlat and the
/// childOff/childList CSR -- from `beliefOf(v, t)`, node-major with trees
/// ascending.  pk.n and pk.k must be set.
template <typename BeliefOf>
void fillBeliefs(PackingKnowledge& pk, const BeliefOf& beliefOf) {
  const std::size_t n = static_cast<std::size_t>(pk.n);
  const std::size_t k = static_cast<std::size_t>(pk.k);
  pk.parentFlat.resize(n * k);
  pk.depthFlat.resize(n * k);
  pk.childOff.assign(n * k + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < k; ++t) {
      const Belief b = beliefOf(v, t);
      pk.parentFlat[v * k + t] = b.parent;
      assert(b.depth <= 32767 && "tree depths are int16_t");
      pk.depthFlat[v * k + t] = static_cast<std::int16_t>(b.depth);
      pk.childOff[v * k + t] = static_cast<std::uint32_t>(b.children.size());
    }
  }
  pk.childList.resize(exclusiveScan(pk.childOff));
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < k; ++t) {
      std::uint32_t w = pk.childOff[v * k + t];
      for (const NodeId c : beliefOf(v, t).children) pk.childList[w++] = c;
    }
  }
}

/// Fills pk's arc CSR (arcOff/arcNbr) from the graph adjacency.  The arc
/// numbering deliberately mirrors Graph's own CSR (firstOutArc(v) + i for
/// the i-th neighbor), so arcFromTo lookups translate directly.
void fillArcs(PackingKnowledge& pk, const Graph& g) {
  const std::size_t n = static_cast<std::size_t>(g.nodeCount());
  pk.arcOff.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    pk.arcOff[v] = static_cast<std::uint32_t>(g.degree(static_cast<NodeId>(v)));
  pk.arcNbr.resize(exclusiveScan(pk.arcOff));
  for (std::size_t v = 0; v < n; ++v) {
    std::uint32_t a = pk.arcOff[v];
    for (const auto& nb : g.neighbors(static_cast<NodeId>(v)))
      pk.arcNbr[a++] = nb.node;
  }
}

/// Derives the per-arc slot lists from the flat parent/children arrays:
/// tree t is on my arc to u iff u is my parent in t or one of my children
/// in t, listed ascending -- exactly the lists the old map-of-vectors
/// construction produced (own belief on both endpoints).  Each (node,
/// tree) contributes one parent arc plus its child arcs, so the build is
/// O((nk + children) log d) via arcFromTo, not O(arcs * k).
void fillArcTrees(PackingKnowledge& pk, const Graph& g) {
  const std::size_t n = static_cast<std::size_t>(pk.n);
  const std::size_t k = static_cast<std::size_t>(pk.k);
  const std::uint32_t arcs = pk.arcOff[n];
  pk.arcTreeOff.assign(static_cast<std::size_t>(arcs) + 1, 0);
  // Calls emit(arc, t) for every tree t on each of v's out-arcs; t
  // ascends, so each arc's list lands ascending.
  auto forEachArcEntry = [&](std::size_t v, const auto& emit) {
    const NodeId vid = static_cast<NodeId>(v);
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t i = v * k + t;
      const NodeId p = pk.parentFlat[i];
      if (p >= 0) emit(g.arcFromTo(vid, p), t);
      for (std::uint32_t c = pk.childOff[i]; c < pk.childOff[i + 1]; ++c) {
        const NodeId ch = pk.childList[c];
        if (ch == p) continue;  // inconsistent belief: count the arc once
        emit(g.arcFromTo(vid, ch), t);
      }
    }
  };
  for (std::size_t v = 0; v < n; ++v)
    forEachArcEntry(v, [&](graph::ArcId a, std::size_t) {
      ++pk.arcTreeOff[static_cast<std::size_t>(a)];
    });
  pk.arcTreeList.resize(exclusiveScan(pk.arcTreeOff));
  std::vector<std::uint32_t> cursor(pk.arcTreeOff.begin(),
                                    pk.arcTreeOff.end() - 1);
  for (std::size_t v = 0; v < n; ++v)
    forEachArcEntry(v, [&](graph::ArcId a, std::size_t t) {
      pk.arcTreeList[cursor[static_cast<std::size_t>(a)]++] =
          static_cast<std::int16_t>(t);
    });
}

}  // namespace

std::shared_ptr<PackingKnowledge> distributePacking(
    const Graph& g, const graph::TreePacking& packing, int depthBound) {
  auto pkPtr = std::make_shared<PackingKnowledge>();
  PackingKnowledge& pk = *pkPtr;
  pk.root = packing.commonRoot;
  pk.k = static_cast<int>(packing.trees.size());
  pk.depthBound = depthBound;
  pk.n = g.nodeCount();
  assert(pk.k <= 32767 && "tree ids are int16_t");
  fillBeliefs(pk, [&](std::size_t v, std::size_t t) {
    const auto& tree = packing.trees[t];
    return Belief{tree.parent[v], tree.depth[v], tree.children[v]};
  });
  fillArcs(pk, g);
  fillArcTrees(pk, g);

  // eta = max edge load over the packing's parent edges.
  std::vector<std::uint16_t> load(static_cast<std::size_t>(g.edgeCount()), 0);
  for (const auto& tree : packing.trees)
    for (const graph::EdgeId e : tree.parentEdge)
      if (e >= 0) ++load[static_cast<std::size_t>(e)];
  std::uint16_t eta = 1;
  for (const std::uint16_t l : load) eta = std::max(eta, l);
  pk.eta = static_cast<int>(eta);
  return pkPtr;
}

void freezePackingViews(PackingKnowledge& pk, const Graph& g,
                        std::vector<StagedNodeView>&& staged) {
  pk.n = g.nodeCount();
  assert(pk.k <= 32767 && "tree ids are int16_t");
  assert(staged.size() == static_cast<std::size_t>(pk.n));
  fillBeliefs(pk, [&](std::size_t v, std::size_t t) {
    const StagedNodeView& sv = staged[v];
    return Belief{sv.parent[t], sv.depth[t], sv.children[t]};
  });
  // Free the staging memory before the arc tables are built.
  staged.clear();
  staged.shrink_to_fit();
  fillArcs(pk, g);
  fillArcTrees(pk, g);
}

}  // namespace mobile::compile

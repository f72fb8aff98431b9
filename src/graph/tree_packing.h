// Tree packings (Definition 6 / Definition 7 of the paper).
//
// A (k, DTP, eta) tree packing is a collection of k spanning trees of
// diameter <= DTP where every edge appears in at most eta trees.  A *weak*
// packing only requires 0.9k of the subgraphs to be spanning trees rooted at
// a common root.  The byzantine compiler (Theorem 3.5) consumes weak
// packings; they are produced three ways:
//   * star packing on cliques (Theorem 1.6): k = n, DTP = 2, eta = 2;
//   * random-coloring BFS packing on expanders, computed distributedly and
//     adversarially (Lemma 3.10, in compile/expander_packing.h);
//   * greedy multiplicative-weights packing (Appendix C, Theorem C.2) for
//     general (k, DTP)-connected graphs, computed in trusted preprocessing.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace mobile::graph {

struct TreePacking {
  std::vector<RootedTree> trees;
  NodeId commonRoot = -1;

  [[nodiscard]] std::size_t size() const { return trees.size(); }
};

struct PackingStats {
  std::size_t treeCount = 0;
  std::size_t spanningCount = 0;   // trees that span all nodes
  int maxDepth = 0;                // over spanning trees
  std::size_t maxLoad = 0;         // eta: max trees sharing one edge
  bool weakValid = false;          // >= 0.9k spanning, common root
};

[[nodiscard]] PackingStats analyzePacking(const TreePacking& p, const Graph& g);

/// Star packing of the clique: tree i is the star centered at node i, with
/// tree 0 additionally rooted so all trees share root 0.  In the paper's
/// terms each star has diameter 2 and the packing load is exactly 2.
/// We root every star at its center; Definition 7's common-root requirement
/// is met by re-rooting: star i rooted at node 0 has depth 2 paths
/// 0 -> center -> others (except star 0, depth 1).
[[nodiscard]] TreePacking cliqueStarPacking(const Graph& g);

/// Appendix C: greedy multiplicative-weights packing of k depth-capped
/// spanning trees rooted at `root`.  Each iteration adds an (approximately)
/// min-cost depth-bounded spanning tree under the exponential load weights
/// w(e) = a^{(h_e+1)/eta} - a^{h_e/eta}.  Depth-capped trees are built by a
/// depth-capped Prim growth (our stand-in for Lemma C.1's shallow-tree
/// oracle; docs/architecture.md section 12, substitution 2).  Each
/// iteration grows one tree from the loads the previous trees left, so the
/// packing is sequential.
[[nodiscard]] TreePacking greedyLowDepthPacking(const Graph& g, int k,
                                                NodeId root, int depthCap);

/// Karger-style baseline: uniformly color edges with k colors; tree i is a
/// BFS tree of color class i if that class is spanning+connected, otherwise
/// an arbitrary (non-spanning) leftover subtree.  Load is exactly 1 but many
/// classes fail to span unless the graph is very dense.
[[nodiscard]] TreePacking randomPartitionPacking(const Graph& g, int k,
                                                 NodeId root, util::Rng& rng);

}  // namespace mobile::graph

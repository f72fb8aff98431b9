// Breadth-first search utilities: distances, BFS trees, diameter.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace mobile::graph {

/// Distances from `source` (-1 for unreachable).
[[nodiscard]] std::vector<int> bfsDistances(const Graph& g, NodeId source);

/// BFS spanning tree rooted at `source` (partial if disconnected).
[[nodiscard]] RootedTree bfsTree(const Graph& g, NodeId source);

/// Exact diameter via all-sources BFS (fine at simulation scales).
/// Returns -1 for disconnected graphs.
[[nodiscard]] int diameter(const Graph& g);

/// Eccentricity of one node; -1 if the graph is disconnected from it.
[[nodiscard]] int eccentricity(const Graph& g, NodeId source);

}  // namespace mobile::graph

// Fault-free CONGEST payload algorithms.
//
// These are the algorithms "A" that the paper's compilers transform.  They
// are deliberately deterministic given (graph, inputs): compiled executions
// must reproduce the exact fault-free outputs (resilience experiments), and
// view distributions must be compared across *inputs* (security
// experiments), so all variability lives in the explicit `inputs` vector.
//
// Congestion profiles matter for Theorem 1.3's congestion-sensitive
// compiler, so each factory documents its (rounds, cong) declaration:
//   FloodMax      cong = rounds      dense, uniform traffic
//   BfsTree       cong = 1           one wave
//   SumAggregate  cong = 3           three waves over tree edges
//   GossipHash    cong = rounds      dense + corruption-avalanche outputs
//   PingPong      cong = rounds      single hot edge, adaptive interaction
//   PathUnicast   cong = 1           the lightest payload (Jain-style)
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/node.h"

namespace mobile::algo {

using graph::Graph;
using graph::NodeId;

/// Max-id flooding leader election; every node outputs the network max.
[[nodiscard]] sim::Algorithm makeFloodMax(const Graph& g, int rounds);

/// BFS layering from `root`; node outputs its distance.
[[nodiscard]] sim::Algorithm makeBfsTree(const Graph& g, NodeId root,
                                         int diameterBound);

/// Sum of private inputs via BFS + convergecast + broadcast; every node
/// outputs the sum.  Used by the security experiments (inputs vary).
[[nodiscard]] sim::Algorithm makeSumAggregate(
    const Graph& g, NodeId root, int diameterBound,
    std::vector<std::uint64_t> inputs);

/// r rounds of neighborhood hash mixing; a single corrupted message anywhere
/// avalanche-changes outputs, making this the canary payload for the
/// resilience experiments.  `maskBits` truncates the mixed state to fit a
/// compiler's payload domain (the byzantine machinery carries 32-bit
/// payloads, the congestion compiler as few as 8; see docs/architecture.md
/// section 12, substitution 6).
[[nodiscard]] sim::Algorithm makeGossipHash(const Graph& g, int rounds,
                                            std::vector<std::uint64_t> inputs,
                                            unsigned maskBits = 64);

/// Adaptive two-party interaction across one edge: message i depends on the
/// response to message i-1.  Exercises compilers on genuinely interactive
/// protocols (the hard case for rewind-if-error).
[[nodiscard]] sim::Algorithm makePingPong(const Graph& g, NodeId a, NodeId b,
                                          int rounds,
                                          std::uint64_t inputA,
                                          std::uint64_t inputB,
                                          unsigned maskBits = 64);

/// Forwards `value` from s to t along a fixed path (trusted-setup route);
/// congestion exactly 1 -- the profile of Jain's secure unicast.
[[nodiscard]] sim::Algorithm makePathUnicast(const Graph& g,
                                             std::vector<NodeId> path,
                                             std::uint64_t value);

/// Mixing hash used by GossipHash/PingPong; exposed for test oracles.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace mobile::algo

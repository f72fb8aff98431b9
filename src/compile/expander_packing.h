// Lemma 3.10: f-mobile-resilient computation of a weak (k, DTP, 2) tree
// packing on expander graphs -- the engine of Theorems 1.7 and 4.12.
//
// Protocol (run *in the presence of the byzantine adversary*):
//   round 1:  for every edge, the higher-id endpoint samples a color in [k]
//             and transmits it; each endpoint keeps its own belief of the
//             edge color (the adversary can desynchronize beliefs -- such
//             colors are "bad" and sacrificed by the analysis).
//   rounds 2..z+1:  parallel max-id BFS inside every color class: each node
//             forwards its best-known id over its incident edges (each edge
//             carries only its own color's wave, so bandwidth is 1 word);
//             when a node's best id increases it re-points its parent for
//             that color and records the round as its depth estimate.
//   final round:  orientation requests: every node tells each parent to
//             adopt it as a child (building the children lists).
//
// Good colors (never corrupted) form spanning trees of depth O(log n / phi)
// rooted at the maximum-id node; with k = Theta(f * log n / phi) at least
// 0.9k colors are good w.h.p., yielding a weak packing with load 2.
//
// The Section 4.3 variant repeats every logical round `padRepetition` times
// with majority decoding (padded rounds), making the same computation
// resilient to round-error-rate adversaries.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "compile/common.h"
#include "sim/node.h"

namespace mobile::compile {

struct ExpanderPackingOptions {
  int k = 8;              // colors / trees
  int bfsRounds = 8;      // z = O(log n / phi)
  int padRepetition = 1;  // s (Section 4.3 padded rounds); 1 = plain
};

/// Post-run container the protocol nodes fill with their final beliefs.
/// Each node publishes into its own `staged` slot; the last publisher
/// (counted atomically, so engine-threaded runs freeze exactly once)
/// flattens the staging into `knowledge` and frees it, so by the time the
/// network run returns `knowledge` is complete and compact.
struct ExpanderPackingResult {
  std::shared_ptr<PackingKnowledge> knowledge;
  std::vector<StagedNodeView> staged;
  std::atomic<int> published{0};
};

/// Builds the packing protocol.  After the network run completes, `result`
/// holds the distributed knowledge (root = node n-1, depthBound =
/// bfsRounds, eta = 2).
[[nodiscard]] sim::Algorithm makeExpanderPackingProtocol(
    const graph::Graph& g, ExpanderPackingOptions opts,
    std::shared_ptr<ExpanderPackingResult> result);

/// Counts packing quality against the ground-truth graph: how many trees
/// are consistent spanning trees of depth <= depthCap rooted at n-1.
struct WeakPackingQuality {
  int k = 0;
  int goodTrees = 0;
  int maxDepthSeen = 0;
};
[[nodiscard]] WeakPackingQuality assessWeakPacking(
    const graph::Graph& g, const PackingKnowledge& pk);

/// Convenience: the CONGESTED CLIQUE packing (Theorem 1.6) -- star trees,
/// trivially known without preprocessing.
[[nodiscard]] std::shared_ptr<PackingKnowledge> cliquePackingKnowledge(
    const graph::Graph& g);

}  // namespace mobile::compile

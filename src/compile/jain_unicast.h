// Secure unicast / multicast with mobile eavesdroppers (Appendix A.1).
//
// The paper plugs in Jain's network-coding unicast as a black box with
// three properties: O(D) rounds, at most one message per directed edge, and
// perfect security whenever the adversary's (first-round) edge set fails to
// disconnect s from t.  We realize the same contract with the classic
// secret-sharing-over-edge-disjoint-paths transmission (Dolev et al. SMT
// style; docs/architecture.md section 12, substitution 4):
//   * s splits the secret into k additive shares (XOR), one per path of a
//     k-edge-disjoint s-t path family;
//   * share i travels path i, one hop per round -- paths are edge-disjoint,
//     so each directed edge carries at most one share message total;
//   * any adversary controlling <= k-1 edges misses an entire path, hence
//     an entire share, hence (XOR sharing) has a perfectly uniform view.
//
// Mobile wrapper (Lemma A.3): one extra initial round exchanges a fresh
// one-time pad on every directed edge; every share message is XORed with
// its arc's pad.  Since each arc carries at most one message, each pad is
// used at most once, and security degrades only on arcs the adversary
// controlled during the *pad* round -- which cannot cover all k paths.
//
// Multicast (R parallel instances): instance j's pads are exchanged in
// round j and its share pipeline starts at round j+1, giving O(dilation+R)
// rounds; colliding shares on one edge bundle into a wider message (the
// random-delay scheduling of Theorem 1.9 is replaced by bandwidth
// normalization, docs/architecture.md section 12, substitution 5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "sim/node.h"

namespace mobile::compile {

struct UnicastPlan {
  graph::NodeId s = -1;
  graph::NodeId t = -1;
  std::vector<std::vector<graph::NodeId>> paths;  // k edge-disjoint s-t paths
  int dilation = 0;                               // max path length (edges)

  [[nodiscard]] int shareCount() const {
    return static_cast<int>(paths.size());
  }
};

/// Plans a k-path unicast (trusted setup; requires k edge-disjoint paths).
[[nodiscard]] UnicastPlan planUnicast(const graph::Graph& g, graph::NodeId s,
                                      graph::NodeId t, int k);

struct MulticastPlan {
  std::vector<UnicastPlan> instances;
  std::vector<std::uint64_t> secrets;  // one per instance

  [[nodiscard]] int instanceCount() const {
    return static_cast<int>(instances.size());
  }
  [[nodiscard]] int dilation() const;
  /// Total protocol rounds: R (pad rounds, pipelined) + dilation + 1.
  [[nodiscard]] int rounds(bool mobile) const;
};

/// Static-secure variant (no pads) -- the baseline that a *mobile*
/// adversary defeats; used by the negative-control experiments.
[[nodiscard]] sim::Algorithm makeStaticSecureMulticast(const graph::Graph& g,
                                                       MulticastPlan plan);

/// Mobile-secure variant (Lemma A.3).  Each target node outputs the
/// reconstructed secret of the first instance addressed to it.
[[nodiscard]] sim::Algorithm makeMobileSecureMulticast(const graph::Graph& g,
                                                       MulticastPlan plan);

/// Convenience single-instance wrappers.
[[nodiscard]] sim::Algorithm makeMobileSecureUnicast(const graph::Graph& g,
                                                     UnicastPlan plan,
                                                     std::uint64_t secret);

}  // namespace mobile::compile

// Theorem 4.1: resilience to bounded round-error rate via rewind-if-error.
//
// The adversary may corrupt f * r' edge-rounds *in total*, bursting at
// will.  The compiled algorithm runs r' = 5r global-rounds, each with three
// phases (Section 4.1):
//
//   Round-Initialization  each node u repeats, 2t times, the tuple
//        M_i(u,v) = (m_i(u,v), R_i(u,v), h_R(pi_i(u,v)), |pi_i(u,v)|)
//     where m_i is the next message of A given u's *estimated* incoming
//     transcripts (computed by deterministic replay of the inner node),
//     R is a fresh fingerprint seed, and h_R is the pairwise-independent
//     transcript hash (hash/fingerprint.h).  Receivers majority-decode.
//
//   Message-Correction (Lemma 4.2)  the d-message correction procedure:
//     tuples are chunked into 32-bit stream elements, and every node feeds
//     (sent, +1) / (received, -1) into the ~O(DTP + f) sparse-recovery
//     correction of Section 1.2.2 -- one block of the MismatchCorrection
//     stage that byz_tree runs too (tree_stages.h, docs/architecture.md
//     section 7.1), all ECC chunks in one hop; nodes patch their tuples.
//
//   Rewind-If-Error  every node checks its neighbors' transcript
//     fingerprints against its own estimates; the network min(GoodState)
//     and max transcript length are aggregated up the trees and the root's
//     per-tree verdict is flooded back down (majority across trees); nodes
//     then extend, rewind, or hold their transcripts per the Section 4.1
//     rules.
//
// The potential Phi(i) = min 2*prefix(pi~, Gamma) - max |pi~| (Eq. 10)
// rises by >= +1 on good global-rounds and falls by <= 3 on bad ones
// (Lemmas 4.4/4.9); with at most r bad global-rounds (Lemma 4.3),
// Phi(r') >= r and every node ends with the fault-free transcript
// (Lemma 4.10).  The shared instrumentation records Phi per global round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "compile/common.h"
#include "sim/node.h"

namespace mobile::compile {

struct RewindOptions {
  /// Global-round multiplier: r' = multiplier * r (paper: 5).
  int multiplier = 5;
  /// Per-hop repetition factor of the scheduled tree stages.
  int rho = 3;
};

/// Round layout of the compiled algorithm.  The totals are 64-bit, so a
/// multiplier too large for sim::Algorithm::rounds shows as a total past
/// INT_MAX instead of wrapping.
struct RewindSchedule {
  std::int64_t globalRounds = 0;  // multiplier * inner rounds
  int initRounds = 0;  // Round-Initialization repetitions 2t = 2(DTP + 2)
  int correctionRounds = 0;
  int consensusRounds = 0;
  int roundsPerGlobal = 0;
  std::int64_t totalRounds = 0;
};

/// Instrumentation shared across nodes.
struct RewindShared {
  /// Fault-free transcripts Gamma(u,v) (arc -> symbol sequence), computed
  /// by a fault-free pre-simulation; padded with bottom symbols.
  std::map<std::pair<graph::NodeId, graph::NodeId>,
           std::vector<std::uint64_t>>
      gamma;
  /// Phi(i) per global round (Eq. 10), plus the per-round good/bad flag.
  std::vector<long> phi;
  std::vector<int> networkGoodState;
  // scratch for the current global round
  long curMinPrefix2 = 0;
  long curMaxLen = 0;
  bool scratchInit = false;
};

[[nodiscard]] RewindSchedule rewindSchedule(const PackingKnowledge& pk,
                                            int innerRounds, int f,
                                            const RewindOptions& opts);

/// Compiles `inner` (deterministic payloads only -- replay-based rewind)
/// into its round-error-rate-resilient equivalent.
[[nodiscard]] sim::Algorithm compileRewind(
    const graph::Graph& g, const sim::Algorithm& inner,
    std::shared_ptr<const PackingKnowledge> pk, int f, RewindOptions opts = {},
    std::shared_ptr<RewindShared> shared = nullptr);

/// Fills shared->gamma by fault-free simulation (call before compileRewind
/// when instrumentation is wanted).
void computeGamma(const graph::Graph& g, const sim::Algorithm& inner,
                  std::uint64_t seed, int paddedLength, RewindShared* shared);

}  // namespace mobile::compile

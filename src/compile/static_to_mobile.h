// Theorem 1.2: the static-to-mobile secure simulation.
//
// Given an r-round f-static-secure algorithm A and a threshold parameter t,
// produces an r' = 2r + t round algorithm A' that is f'-mobile-secure with
// f' = floor(f*(t+1)/(r+t)); for t >= 2fr, f' = f.
//
// Phase 1 (rounds 1..r+t): every ordered neighbor pair exchanges uniform
// random words R_j(u, v).
// Phase 2 (rounds r+t+1..r'): A is simulated round-by-round; the round-i
// message m_i(u,v) is sent as m_i(u,v) XOR K_i(u,v), where the pads K_i come
// from the Vandermonde key pool (Lemma A.1 / Theorem 2.1).  The receiver
// unmasks before delivering to its inner A instance, so A' computes exactly
// what A computes.
//
// Security intuition made measurable: on *good* edges (eavesdropped <= t
// rounds of phase 1) all phase-2 traffic is marginally uniform; at most f
// edges are bad, and A's f-static security covers those.  The experiments
// verify (a) exact output equivalence, (b) chi-square uniformity of traffic
// observed on good edges, (c) view indistinguishability across inputs.
#pragma once

#include <memory>

#include "sim/network.h"
#include "sim/node.h"

namespace mobile::compile {

/// Phase-2 wire format: word0 = payload ^ pad0, word1 = presenceFlag ^
/// pad1.  Two independent pad words per (round, arc) keep the one-time-pad
/// argument exact; both words of every phase-2 message are marginally
/// uniform on good edges.  The key pool therefore takes
/// KeyPool::symbols(r, t, kStaticToMobileWordsPerRound) symbols.
inline constexpr int kStaticToMobileWordsPerRound = 2;

struct StaticToMobileStats {
  int exchangeRounds = 0;  // r + t
  int totalRounds = 0;     // 2r + t
  int mobileF = 0;         // f' achieved for a given static f
};

/// Compiles `inner` (declared r rounds) into the 2r+t-round mobile-secure
/// algorithm.  `staticF` is the f of the given static-secure algorithm and
/// only feeds the f' computation in stats; the construction itself is
/// oblivious to it.
[[nodiscard]] sim::Algorithm compileStaticToMobile(
    const graph::Graph& g, const sim::Algorithm& inner, int t,
    StaticToMobileStats* stats = nullptr, int staticF = 0);

}  // namespace mobile::compile

// f-mobile-secure broadcast (Theorem A.4, share-dispersal architecture).
//
// The source (the packing root) splits its secret -- W words -- into k XOR
// shares, one per tree of a (k, DTP, eta) packing with k > f * eta.  Share
// i floods down tree i under the Lemma 3.3 slot schedule.  Every word of
// every hop is one-time-padded with keys from per-edge key pools
// (Lemma A.1) established in an initial exchange phase with threshold
// t = 2 * f * rB, so at most f edges have leaky pools.  A mobile
// eavesdropper therefore fully observes at most f * eta < k shares and is
// perfectly ignorant of at least one -- hence of the XOR secret.
//
// This realizes the paper's dispersal architecture; the fragment/landmark
// machinery that sharpens the round bound to ~O(D + sqrt(f b n) + b) is
// replaced by whole-tree dispersal at ~O((D + W) * eta * f) rounds
// (docs/architecture.md section 12, substitution 3); the benchmark
// reports the measured shape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/common.h"
#include "compile/keypool.h"
#include "sim/node.h"

namespace mobile::compile {

/// Reusable per-node component (embeddable at a round offset, which is how
/// the congestion-sensitive compiler consumes it).
class BroadcastCore {
 public:
  /// `secret` is only meaningful at the root (pk->root).  `pool` is the
  /// chunk key pool, keyPool(*pk, f); all nodes must construct with
  /// identical W = secret.size() and the same pool.
  BroadcastCore(graph::NodeId self, const graph::Graph& g, util::Rng rng,
                std::shared_ptr<const PackingKnowledge> pk,
                std::vector<std::uint64_t> secret, const KeyPool& pool);

  /// The chunk key pool against `f` mobile eavesdroppers: eta pads per arc
  /// (one per slot) at threshold t = 2 f eta.  Build it once per broadcast
  /// and hand every node the same one.
  [[nodiscard]] static KeyPool keyPool(const PackingKnowledge& pk, int f);

  /// Rounds this component occupies: W chunks, each an exchange phase plus
  /// a dispersal phase (word-at-a-time dispersal; see the .cc header).
  [[nodiscard]] int totalRounds() const {
    return w_ * (exchangeRounds() + floodRounds_);
  }
  /// Exchange rounds of one chunk.
  [[nodiscard]] int exchangeRounds() const {
    return pads_.pool().exchangeRounds();
  }

  /// Drive with localRound = 1..totalRounds().
  void send(int localRound, sim::Outbox& out);
  void receive(int localRound, const sim::Inbox& in);

  /// Reconstructed secret (valid after totalRounds()).
  [[nodiscard]] const std::vector<std::uint64_t>& result() const {
    return result_;
  }

 private:
  graph::NodeId self_;
  const graph::Graph& g_;
  util::Rng rng_;
  std::shared_ptr<const PackingKnowledge> pk_;
  std::vector<std::uint64_t> secret_;
  int w_;
  int floodRounds_;
  PadExchange pads_;  // one exchange per chunk, pads indexed by slot
  std::vector<std::vector<std::uint64_t>> shares_;  // [tree][word]
  std::vector<char> haveShare_;                     // root-seeded / received
  std::vector<std::uint64_t> result_;
};

/// Standalone algorithm: every node outputs result()[0] at the end.
[[nodiscard]] sim::Algorithm makeMobileSecureBroadcast(
    const graph::Graph& g, std::shared_ptr<const PackingKnowledge> pk,
    std::vector<std::uint64_t> secret, int f);

}  // namespace mobile::compile

// Key pools (Lemma A.1): the engine of every eavesdropper-side compiler.
//
// Protocol: for ell = r + t rounds, each ordered neighbor pair exchanges a
// fresh uniform message of `wordsPerRound` 64-bit words.  Afterwards both
// endpoints push the exchanged words through the (t, k)-resilient
// Vandermonde extractor (Theorem 2.1), lane-wise over GF(2^16), obtaining r
// one-time-pad keys (of wordsPerRound words each) per direction.  An edge
// eavesdropped in more than t of the ell rounds is *bad* (its keys may
// leak); by averaging at most floor(f*(r+t)/(t+1)) edges are bad, and
// choosing t >= 2fr gives exactly f bad edges -- the quantitative heart of
// Theorem 1.2.
//
// The extractor's matrix is M_ij = alpha^((i+1) j), so output j is the
// power sum y_j = sum_i x_i a_i^j over the evaluation points
// a_i = alpha^(i+1).  A pool builds one split-nibble gf::MulTable per
// point when it is constructed and shares them between its copies; an
// extraction is then one pass over whole 64-bit words, the four 16-bit
// lanes side by side, with no matrix and no per-call table.
//
// Because field addition in GF(2^16) is XOR, a word-level XOR implements the
// one-time pad over F_q exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gf/slab.h"
#include "sim/node.h"

namespace mobile::compile {

class KeyPool {
 public:
  /// Most symbols one extraction may take, the Vandermonde bound n < q - 1:
  /// past it the points alpha^(i+1) wrap around and repeat, and the
  /// extraction loses Theorem 2.1's resilience.
  static constexpr long kMaxSymbols = static_cast<long>(gf::kGroupOrder) - 1;

  /// Symbols of a pool of `r` keys from `r + t` rounds of `wordsPerRound`
  /// words; a pool needs symbols(r, t, w) <= kMaxSymbols.
  [[nodiscard]] static long symbols(long r, long t, long wordsPerRound) {
    return (r + t) * wordsPerRound;
  }

  /// Pool yielding `r` keys (of `wordsPerRound` words each) from `r + t`
  /// exchange rounds.  Builds the evaluation-point tables.
  KeyPool(int r, int t, int wordsPerRound = 1);

  [[nodiscard]] int exchangeRounds() const { return r_ + t_; }
  [[nodiscard]] int wordsPerRound() const { return w_; }
  /// Exchanged words one extraction takes, (r + t) * wordsPerRound.
  [[nodiscard]] std::size_t symbolWords() const { return points_->size(); }
  /// Pad words one extraction yields, r * wordsPerRound.
  [[nodiscard]] std::size_t keyWords() const {
    return static_cast<std::size_t>(r_ * w_);
  }

  /// Lane-wise Vandermonde extraction: `symbols` are the symbolWords()
  /// exchanged words for one directed channel (round-major); writes the
  /// keyWords() pad words (round-major) to `keys`.  Allocates nothing.
  void extract(std::span<const std::uint64_t> symbols,
               std::span<std::uint64_t> keys) const;

  /// Paper bound on bad edges: floor(f * (r+t) / (t+1)).
  [[nodiscard]] static long badEdgeBound(int f, int r, int t);

 private:
  int r_;
  int t_;
  int w_;
  /// Table of a_i = alpha^(i+1) for symbol i, shared by every copy.
  std::shared_ptr<const std::vector<gf::MulTable>> points_;
};

/// One node's side of the Lemma A.1 exchange with every neighbor -- the
/// one implementation behind secure broadcast, static-to-mobile and the
/// congestion compiler.  Arcs are indexed by position in g.neighbors(self),
/// as sim::NeighborSlots indexes them.  An exchange is one send() and
/// receive() per exchange round, then derive(): the pads toward neighbor i
/// extract from the words self sent to i, the pads from i from the words i
/// sent, so both endpoints of an arc hold the same pads (the eavesdropper
/// is passive).  start() readies the next exchange.
class PadExchange {
 public:
  /// Holds a copy of `pool` (the tables are shared) and sizes the pads, so
  /// derive() allocates nothing.
  PadExchange(const graph::Graph& g, graph::NodeId self, KeyPool pool);

  [[nodiscard]] const KeyPool& pool() const { return pool_; }

  /// Drops the recorded words, keeping their capacity (a new instance
  /// needs no start()).
  void start();
  /// One exchange round: wordsPerRound fresh words to every neighbor,
  /// drawn from `rng` in neighbor order.
  void send(util::Rng& rng, sim::Outbox& out);
  /// Records one round's received words; an absent message or a missing
  /// word reads as 0.
  void receive(const sim::Inbox& in);
  /// Extracts both directions' pads from the recorded words into the
  /// pad storage, overwriting the previous exchange's.
  void derive();

  /// Word `word` of pad `key` toward / from the i-th neighbor.
  [[nodiscard]] std::uint64_t sendPad(std::size_t i, int key,
                                      int word) const {
    return sendPads_[i][padIndex(key, word)];
  }
  [[nodiscard]] std::uint64_t recvPad(std::size_t i, int key,
                                      int word) const {
    return recvPads_[i][padIndex(key, word)];
  }

 private:
  [[nodiscard]] std::size_t padIndex(int key, int word) const {
    return static_cast<std::size_t>(key * pool_.wordsPerRound() + word);
  }

  const graph::Graph& g_;
  graph::NodeId self_;
  KeyPool pool_;
  std::vector<std::vector<std::uint64_t>> sent_, recv_;  // [arc] round-major
  std::vector<std::vector<std::uint64_t>> sendPads_, recvPads_;  // [arc]
  sim::Msg wire_;  // reused exchange message
};

}  // namespace mobile::compile

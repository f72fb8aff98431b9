#include <gtest/gtest.h>

#include <functional>

#include "compile/keypool.h"
#include "graph/generators.h"
#include "sim/node.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mobile::compile {
namespace {

TEST(KeyPool, EndpointsDeriveSameKeys) {
  // Both endpoints see the same exchanged words, so both derive identical
  // pads -- the correctness contract of Lemma A.1.
  KeyPool pool(5, 3);
  util::Rng rng(1);
  std::vector<std::uint64_t> symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  EXPECT_EQ(pool.extract(symbols), pool.extract(symbols));
  EXPECT_EQ(static_cast<int>(pool.extract(symbols).size()), 5);
}

TEST(KeyPool, MultiWordRounds) {
  KeyPool pool(3, 2, 2);
  util::Rng rng(2);
  std::vector<std::uint64_t> symbols;
  for (int i = 0; i < pool.exchangeRounds() * 2; ++i)
    symbols.push_back(rng.next());
  EXPECT_EQ(pool.extract(symbols).size(), 6u);
}

TEST(KeyPool, BadEdgeBoundFormula) {
  EXPECT_EQ(KeyPool::badEdgeBound(2, 4, 16), (2L * 20) / 17);  // = 2
  EXPECT_EQ(KeyPool::badEdgeBound(3, 10, 0), 30L);
  // t >= 2fr gives exactly f.
  const int f = 3, r = 5;
  EXPECT_EQ(KeyPool::badEdgeBound(f, r, 2 * f * r), f);
}

TEST(KeyPool, KeysUniformWhenAdversaryMissesRounds) {
  // Adversary knows t of the r+t exchanged words; remaining entropy makes
  // every key uniform.  Simulate: fix the first t words (adversary-known),
  // draw the rest, and chi-square each key's low nibble.
  const int r = 4, t = 3;
  KeyPool pool(r, t);
  util::Rng rng(3);
  std::vector<std::vector<std::uint64_t>> counts(
      static_cast<std::size_t>(r), std::vector<std::uint64_t>(16, 0));
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint64_t> symbols(static_cast<std::size_t>(r + t));
    for (int i = 0; i < t; ++i)
      symbols[static_cast<std::size_t>(i)] = 0xdeadbeef;
    for (int i = t; i < r + t; ++i)
      symbols[static_cast<std::size_t>(i)] = rng.next();
    const auto keys = pool.extract(symbols);
    for (int i = 0; i < r; ++i)
      ++counts[static_cast<std::size_t>(i)]
              [keys[static_cast<std::size_t>(i)] & 0xf];
  }
  for (int i = 0; i < r; ++i)
    EXPECT_LT(util::chiSquareUniform(counts[static_cast<std::size_t>(i)]),
              util::chiSquareCritical999(15))
        << "key " << i;
}

TEST(KeyPool, KeysDifferAcrossRounds) {
  KeyPool pool(6, 2);
  util::Rng rng(4);
  std::vector<std::uint64_t> symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  const auto keys = pool.extract(symbols);
  std::set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
}

// --- PadExchange -------------------------------------------------------------

using graph::NodeId;
using Words = std::vector<std::uint64_t>;
/// Alters the copy of `m` that `from` sent to `to` in exchange round `round`.
using Tamper =
    std::function<void(NodeId from, NodeId to, int round, sim::Msg& m)>;

/// Hand-driven exchange between every pair of `g`: each node sends into its
/// own NeighborSlots, every copy passes through `tamper`, and each receiver
/// reads the result through a second NeighborSlots.  Returns got[v][i], the
/// words v was delivered from its i-th neighbor with missing ones read as 0.
std::vector<std::vector<Words>> runExchange(const graph::Graph& g,
                                            std::vector<PadExchange>& ex,
                                            std::vector<util::Rng>& rngs,
                                            const Tamper& tamper) {
  const auto n = static_cast<std::size_t>(g.nodeCount());
  std::vector<sim::NeighborSlots> out, in;
  std::vector<std::vector<Words>> got(n);
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    out.emplace_back(g, v);
    in.emplace_back(g, v);
    got[static_cast<std::size_t>(v)].resize(g.degree(v));
    ex[static_cast<std::size_t>(v)].start();
  }
  const int words = ex[0].pool().wordsPerRound();
  for (int round = 0; round < ex[0].pool().exchangeRounds(); ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v].begin();
      ex[v].send(rngs[v], out[v]);
    }
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const auto& nbs = g.neighbors(v);
      in[vi].begin();
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const NodeId u = nbs[i].node;
        sim::Msg m;
        sim::assignMsg(m, out[static_cast<std::size_t>(u)].from(v));
        tamper(u, v, round, m);
        in[vi].to(u, m);
        for (int w = 0; w < words; ++w)
          got[vi][i].push_back(m.atOr(static_cast<std::size_t>(w), 0));
      }
      ex[vi].receive(in[vi]);
    }
  }
  for (auto& e : ex) e.derive();
  return got;
}

/// Adjacency position of `nb` in g.neighbors(v).
std::size_t arcIndex(const graph::Graph& g, NodeId v, NodeId nb) {
  return static_cast<std::size_t>(g.findArc(v, nb) - g.firstOutArc(v));
}

struct PadExchangeTest : ::testing::Test {
  static constexpr int kR = 3, kT = 2, kWords = 2;
  graph::Graph g = graph::clique(4);
  KeyPool pool{kR, kT, kWords};
  std::vector<PadExchange> ex;
  std::vector<util::Rng> rngs;

  void SetUp() override {
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      ex.emplace_back(g, v, pool);
      rngs.emplace_back(100 + static_cast<std::uint64_t>(v));
    }
  }

  /// Every (key, word) of u's pad toward v equals v's pad from u.
  void expectEndpointsAgree(NodeId u, NodeId v) const {
    const std::size_t toV = arcIndex(g, u, v), fromU = arcIndex(g, v, u);
    for (int key = 0; key < kR; ++key)
      for (int w = 0; w < kWords; ++w)
        EXPECT_EQ(ex[static_cast<std::size_t>(u)].sendPad(toV, key, w),
                  ex[static_cast<std::size_t>(v)].recvPad(fromU, key, w))
            << u << "->" << v << " key " << key << " word " << w;
  }
};

TEST_F(PadExchangeTest, EndpointsDeriveTheSamePadsOnEveryArc) {
  (void)runExchange(g, ex, rngs, [](NodeId, NodeId, int, sim::Msg&) {});
  for (NodeId u = 0; u < g.nodeCount(); ++u)
    for (NodeId v = 0; v < g.nodeCount(); ++v)
      if (u != v) expectEndpointsAgree(u, v);
}

TEST_F(PadExchangeTest, DroppedAndShortCopiesReadAsZero) {
  // 0->1 loses its round-1 copy; 2->3 arrives with one of its two words in
  // round 3.  The receiver's pad is the extraction of the zero-filled words.
  const auto got =
      runExchange(g, ex, rngs, [](NodeId from, NodeId to, int round,
                                  sim::Msg& m) {
        if (from == 0 && to == 1 && round == 1) {
          m.present = false;
          m.words.clear();
        }
        if (from == 2 && to == 3 && round == 3) m.words.resize(1);
      });
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {2, 3}}) {
    const std::size_t fromU = arcIndex(g, v, u);
    const Words& delivered = got[static_cast<std::size_t>(v)][fromU];
    ASSERT_EQ(delivered.size(),
              static_cast<std::size_t>((kR + kT) * kWords));
    const Words pads = pool.extract(delivered);
    for (int key = 0; key < kR; ++key)
      for (int w = 0; w < kWords; ++w)
        EXPECT_EQ(ex[static_cast<std::size_t>(v)].recvPad(fromU, key, w),
                  pads[static_cast<std::size_t>(key * kWords + w)]);
    // The zeroed words changed the extraction: the endpoints now disagree.
    EXPECT_NE(ex[static_cast<std::size_t>(u)].sendPad(arcIndex(g, u, v), 0, 0),
              ex[static_cast<std::size_t>(v)].recvPad(fromU, 0, 0));
  }
  expectEndpointsAgree(1, 0);  // the reverse arcs were untouched
  expectEndpointsAgree(3, 2);
}

TEST_F(PadExchangeTest, ASecondExchangeGivesFreshPads) {
  const auto none = [](NodeId, NodeId, int, sim::Msg&) {};
  (void)runExchange(g, ex, rngs, none);
  std::vector<Words> first;
  for (std::size_t i = 0; i < g.degree(0); ++i)
    for (int key = 0; key < kR; ++key)
      first.push_back({ex[0].sendPad(i, key, 0), ex[0].recvPad(i, key, 0)});
  (void)runExchange(g, ex, rngs, none);  // start() drops the old words
  std::size_t at = 0;
  for (std::size_t i = 0; i < g.degree(0); ++i)
    for (int key = 0; key < kR; ++key, ++at) {
      EXPECT_NE(ex[0].sendPad(i, key, 0), first[at][0]);
      EXPECT_NE(ex[0].recvPad(i, key, 0), first[at][1]);
    }
  for (NodeId u = 0; u < g.nodeCount(); ++u)
    for (NodeId v = 0; v < g.nodeCount(); ++v)
      if (u != v) expectEndpointsAgree(u, v);
}

}  // namespace
}  // namespace mobile::compile

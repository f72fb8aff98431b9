#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>

#include "bit_extract_oracle.h"
#include "compile/congestion_compiler.h"
#include "compile/keypool.h"
#include "compile/secure_broadcast.h"
#include "compile/static_to_mobile.h"
#include "exp/precompute_cache.h"
#include "graph/generators.h"
#include "scn/registry.h"
#include "sim/node.h"
#include "util/rng.h"
#include "util/stats.h"

// --- heap accounting ---------------------------------------------------------
// Counting operator new/delete (one replacement allowed per binary).
namespace {
std::atomic<std::uint64_t> g_bytesAllocated{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_bytesAllocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mobile::compile {
namespace {

using Words = std::vector<std::uint64_t>;

Words extracted(const KeyPool& pool, const Words& symbols) {
  Words keys(pool.keyWords());
  pool.extract(symbols, keys);
  return keys;
}

TEST(KeyPool, EndpointsDeriveSameKeys) {
  // Both endpoints see the same exchanged words, so both derive identical
  // pads -- the correctness contract of Lemma A.1.
  KeyPool pool(5, 3);
  util::Rng rng(1);
  Words symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  EXPECT_EQ(extracted(pool, symbols), extracted(pool, symbols));
  EXPECT_EQ(pool.keyWords(), 5u);
}

TEST(KeyPool, MultiWordRounds) {
  KeyPool pool(3, 2, 2);
  EXPECT_EQ(pool.symbolWords(), 10u);
  EXPECT_EQ(pool.keyWords(), 6u);
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
    Words symbols(static_cast<std::size_t>(r + t));
    for (int i = 0; i < t; ++i)
      symbols[static_cast<std::size_t>(i)] = 0xdeadbeef;
    for (int i = t; i < r + t; ++i)
      symbols[static_cast<std::size_t>(i)] = rng.next();
    const Words keys = extracted(pool, symbols);
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
  Words symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  const Words keys = extracted(pool, symbols);
  std::set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
}

// --- differential: power sums vs the Theorem 2.1 matrix ----------------------

struct Shape {
  int r, t, w;
};

/// The shapes the three compilers build on the rewind_secure_mix workload:
/// static_to_mobile (r, r, 2) for floodmax and sum on the 4x4 torus and the
/// 4-cube, secure broadcast (eta, 2 f eta, 1) on cliques of 8..16 nodes at
/// f = 1, 2, and the congestion compiler's pool (r, 3r, 1) and seed
/// broadcast pool on the 6-clique at f = 1.
std::vector<Shape> workloadShapes() {
  std::vector<Shape> shapes;
  const auto s2m = [&](const char* graph, const char* algo) {
    const scn::Params p = scn::Params::fromTokens(graph);
    const graph::Graph g = scn::graphs().get(p.str("graph"))(p);
    const int r = scn::algos().get(algo)(g, p).rounds;
    shapes.push_back({r, r, kStaticToMobileWordsPerRound});
  };
  s2m("graph=torus rows=4 cols=4", "floodmax");
  s2m("graph=torus rows=4 cols=4", "sum");
  s2m("graph=hypercube dim=4", "floodmax");
  for (const graph::NodeId n : {8, 12, 16}) {
    const auto pk =
        exp::PrecomputeCache::global().starPacking(graph::clique(n), 2);
    for (const int f : {1, 2}) shapes.push_back({pk->eta, 2 * f * pk->eta, 1});
  }
  const graph::Graph g = graph::clique(6);
  const auto pk = exp::PrecomputeCache::global().starPacking(g, 2);
  const scn::Params p =
      scn::Params::fromTokens("graph=clique n=6 rounds=1 mask=8");
  CongestionCompilerStats stats;
  (void)compileCongestionSensitive(g, scn::algos().get("gossip")(g, p), pk, 1,
                                   {}, &stats);
  shapes.push_back({stats.simulationRounds,
                    stats.poolRounds - stats.simulationRounds, 1});
  shapes.push_back({pk->eta, 2 * pk->eta, 1});
  return shapes;
}

/// Edge shapes: t = 0, r = 1, w = 1..4, and symbol counts on both sides of
/// the extractor's 64-point block.
const Shape kEdgeShapes[] = {{1, 0, 1},  {3, 0, 1},  {1, 4, 1},  {1, 1, 3},
                             {2, 4, 1},  {3, 3, 2},  {2, 5, 3},  {4, 4, 4},
                             {3, 12, 1}, {32, 32, 1}, {32, 64, 1}, {1, 64, 1},
                             {5, 5, 2},  {18, 18, 2}};

/// Symbol words: all zero, all ones, one non-zero lane per word (rotating
/// through the lanes), and uniform.
std::vector<Words> symbolCases(std::size_t n, std::uint64_t seed) {
  std::vector<Words> cases(4, Words(n));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    cases[0][i] = 0;
    cases[1][i] = ~std::uint64_t{0};
    cases[2][i] = ((rng.next() & 0xffff) | 1) << (16 * (i % 4));
    cases[3][i] = rng.next();
  }
  return cases;
}

void expectMatchesOracle(const Shape& s) {
  const KeyPool pool(s.r, s.t, s.w);
  const auto n = static_cast<std::size_t>((s.r + s.t) * s.w);
  const gf::bit_extract_oracle::BitExtractor oracle(
      n, static_cast<std::size_t>(s.t * s.w));
  ASSERT_EQ(pool.symbolWords(), n);
  ASSERT_EQ(pool.keyWords(), oracle.outputs());
  for (const Words& symbols : symbolCases(n, n * 7919 + 1))
    EXPECT_EQ(extracted(pool, symbols), oracle.extractLanes(symbols))
        << "(r, t, w) = (" << s.r << ", " << s.t << ", " << s.w << ")";
}

TEST(KeyPool, MatchesLaneWiseVandermondeOnWorkloadShapes) {
  const std::vector<Shape> shapes = workloadShapes();
  ASSERT_EQ(shapes.size(), 11u);
  for (const Shape& s : shapes) expectMatchesOracle(s);
}

TEST(KeyPool, MatchesLaneWiseVandermondeOnEdgeShapes) {
  for (const Shape& s : kEdgeShapes) expectMatchesOracle(s);
}

TEST(KeyPool, AllZeroSymbolsGiveZeroKeys) {
  const KeyPool pool(4, 4, 2);
  for (const std::uint64_t k : extracted(pool, Words(pool.symbolWords(), 0)))
    EXPECT_EQ(k, 0u);
}

TEST(KeyPool, CopiesShareTheTablesAndExtractAllocatesNothing) {
  const KeyPool pool(5, 5, 2);
  Words symbols(pool.symbolWords());
  util::Rng rng(9);
  for (auto& x : symbols) x = rng.next();
  Words keys(pool.keyWords());
  const std::uint64_t bytes0 = g_bytesAllocated.load();
  const KeyPool copy = pool;
  copy.extract(symbols, keys);
  EXPECT_EQ(g_bytesAllocated.load(), bytes0);
  EXPECT_EQ(keys, extracted(pool, symbols));
}

// --- PadExchange -------------------------------------------------------------

using graph::NodeId;
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
    const Words pads = extracted(pool, delivered);
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

TEST_F(PadExchangeTest, DeriveAllocatesNothing) {
  // The pads are sized when the exchange is built and extraction writes
  // into them, so deriving again (every chunk of a secure broadcast) costs
  // no heap traffic.
  (void)runExchange(g, ex, rngs, [](NodeId, NodeId, int, sim::Msg&) {});
  const std::uint64_t bytes0 = g_bytesAllocated.load();
  for (auto& e : ex) e.derive();
  EXPECT_EQ(g_bytesAllocated.load(), bytes0);
  expectEndpointsAgree(0, 1);
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

// Parameterized property sweeps across graph families, payloads and
// compiler knobs -- each instantiation checks one invariant end-to-end.
#include <gtest/gtest.h>

#include <optional>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/byz_tree_compiler.h"
#include "compile/expander_packing.h"
#include "compile/jain_unicast.h"
#include "compile/keypool.h"
#include "compile/rewind_compiler.h"
#include "compile/static_to_mobile.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/stats.h"

namespace mobile::compile {
namespace {

using sim::Algorithm;
using sim::Network;

// --- invariant: compiled == fault-free for every payload x graph -------------

struct PipelineCase {
  std::string name;
  int graphKind;    // 0 clique10, 1 torus3x4, 2 hypercube3, 3 circulant(12,4)
  int payloadKind;  // 0 floodmax, 1 bfs, 2 gossip, 3 sum
};

graph::Graph makeGraph(int kind) {
  switch (kind) {
    case 0: return graph::clique(10);
    case 1: return graph::torus(3, 4);
    case 2: return graph::hypercube(3);
    default: return graph::circulant(12, 4);
  }
}

Algorithm makePayload(const graph::Graph& g, int kind) {
  const int d = graph::diameter(g);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()));
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = 3 * i + 1;
  switch (kind) {
    case 0: return algo::makeFloodMax(g, d + 1);
    case 1: return algo::makeBfsTree(g, 0, d);
    case 2: return algo::makeGossipHash(g, 2, inputs, 32);
    default: return algo::makeSumAggregate(g, 0, d, inputs);
  }
}

class SecureCompilerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SecureCompilerSweep, EquivalenceUnderEavesdropping) {
  const auto [gk, pk] = GetParam();
  const graph::Graph g = makeGraph(gk);
  const Algorithm inner = makePayload(g, pk);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileStaticToMobile(g, inner, inner.rounds);
  adv::RandomEavesdropper adv(2, 17);
  Network net(g, compiled, 3, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SecureCompilerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1, 2, 3)));

class ByzCompilerGraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(ByzCompilerGraphSweep, EquivalenceOverGreedyPackings) {
  // Densely connected graphs only (k >> f*eta needs density; see T7).
  const int gk = GetParam();
  const graph::Graph g = gk == 0   ? graph::clique(10)
                         : gk == 1 ? graph::circulant(14, 5)
                                   : graph::circulant(16, 6);
  const graph::TreePacking p = graph::greedyLowDepthPacking(g, 8, 0, 6);
  const auto packing = distributePacking(g, p, 6);
  const Algorithm inner = makePayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, packing, 1);
  adv::RandomByzantine adv(1, 29);
  Network net(g, compiled, 31, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ByzCompilerGraphSweep,
                         ::testing::Values(0, 1, 2));

// --- invariant: key pools agree at both endpoints for all (r, t) -------------

class KeyPoolSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KeyPoolSweep, ExtractionDeterministicAndSized) {
  const auto [r, t] = GetParam();
  KeyPool pool(r, t);
  util::Rng rng(static_cast<std::uint64_t>(r * 131 + t));
  std::vector<std::uint64_t> symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  std::vector<std::uint64_t> k1(pool.keyWords()), k2(pool.keyWords());
  pool.extract(symbols, k1);
  pool.extract(symbols, k2);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(static_cast<int>(k1.size()), r);
  // Different symbol streams yield different keys (overwhelmingly).
  symbols[0] ^= 1;
  pool.extract(symbols, k2);
  EXPECT_NE(k2, k1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KeyPoolSweep,
    ::testing::Combine(::testing::Values(1, 3, 8, 16),
                       ::testing::Values(0, 1, 5, 20)));

// --- invariant: unicast delivers for all (n, span, k <= 2 span) --------------

class UnicastSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(UnicastSweep, Delivers) {
  const auto [n, span, k] = GetParam();
  const graph::Graph g = graph::circulant(n, span);
  const UnicastPlan plan = planUnicast(g, 0, n / 2, k);
  const std::uint64_t secret = 0xabcd0000u + static_cast<std::uint64_t>(n);
  const Algorithm a = makeMobileSecureUnicast(g, plan, secret);
  adv::RandomEavesdropper adv(k - 1, 7);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_EQ(net.outputs()[static_cast<std::size_t>(n / 2)], secret);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UnicastSweep,
    ::testing::Values(std::make_tuple(8, 2, 3), std::make_tuple(12, 2, 4),
                      std::make_tuple(12, 3, 5), std::make_tuple(16, 4, 7),
                      std::make_tuple(20, 3, 6)));

// --- invariant: byz schedule arithmetic is internally consistent -------------

/// A compiler schedule pinned at capture time, so a change to the tuning
/// constants in byz_tree_compiler.h or rewind_compiler.cc shows here.
struct ByzPin {
  int z = 0;
  int chunks = 0;
  int totalRounds = 0;
  std::size_t hopWords = 0;  // widest message of the sketch block: the up-wave
};
struct RewindPin {
  int initRounds = 0;
  int correctionRounds = 0;
  int totalRounds = 0;
};
/// Clique n, f: both byz correction modes (3 inner rounds) and, at the
/// rewind_secure_mix points (pingpong rounds=2, f=1), rewind.
struct ScheduleCase {
  int n = 0;
  int f = 0;
  ByzPin l0;
  ByzPin sparse;
  std::optional<RewindPin> rewind;
};

void PrintTo(const ScheduleCase& c, std::ostream* os) {
  *os << "n=" << c.n << " f=" << c.f;
}

class ScheduleSweep : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleSweep, RoundDecompositionConsistent) {
  const ScheduleCase& c = GetParam();
  const graph::Graph g = graph::clique(c.n);
  const auto packing = cliquePackingKnowledge(g);
  for (const auto mode :
       {CorrectionMode::L0Iterative, CorrectionMode::SparseOneShot}) {
    const ByzPin& want = mode == CorrectionMode::L0Iterative ? c.l0 : c.sparse;
    ByzOptions opts;
    opts.correction = mode;
    const ByzSchedule s = ByzSchedule::compute(*packing, 3, c.f, opts);
    EXPECT_EQ(s.roundsPerSimRound, 1 + s.z * s.roundsPerIteration);
    EXPECT_EQ(s.totalRounds, 3 * s.roundsPerSimRound);
    const SlotSchedule slots{packing->eta, kByzRho};
    EXPECT_EQ(s.roundsPerIteration,
              slots.blockRounds(s.sketchSteps + s.eccSteps));
    EXPECT_EQ(s.z, want.z);
    EXPECT_EQ(s.chunks, want.chunks);
    EXPECT_EQ(s.totalRounds, want.totalRounds);
    // The exchange step and the sketch block of the first iteration.
    const Algorithm compiled = compileByzantineTree(
        g, algo::makeFloodMax(g, 3), packing, c.f, opts);
    Network net(g, compiled, 1);
    net.runExact(1 + slots.blockRounds(s.sketchSteps));
    EXPECT_EQ(net.maxWordsObserved(), want.hopWords);
  }
  if (c.rewind) {
    const Algorithm inner = algo::makePingPong(g, 0, 1, 2, 0x111, 0x222, 32);
    const RewindSchedule r =
        rewindSchedule(*packing, inner.rounds, c.f, RewindOptions{});
    EXPECT_EQ(r.initRounds, c.rewind->initRounds);
    EXPECT_EQ(r.correctionRounds, c.rewind->correctionRounds);
    EXPECT_EQ(r.totalRounds, c.rewind->totalRounds);
  }
}

// The grid n x f = {8, 16, 32} x {1, 2, 4, 8}, the byz_clique_adv points
// (n = 12, 16; f = 1..3) and the rewind_secure_mix rewind points (n = 6,
// 8; f = 1).
INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleSweep,
    ::testing::Values(
        ScheduleCase{6, 1, {3, 21, 3675, 630}, {1, 21, 1227, 240},
                     RewindPin{8, 48, 860}},
        ScheduleCase{8, 1, {3, 21, 3675, 630}, {1, 21, 1227, 240},
                     RewindPin{8, 48, 860}},
        ScheduleCase{8, 2, {4, 25, 5763, 630}, {1, 25, 1443, 480}, {}},
        ScheduleCase{8, 4, {5, 33, 9363, 630}, {1, 33, 1875, 960}, {}},
        ScheduleCase{8, 8, {6, 49, 16419, 630}, {1, 49, 2739, 1920}, {}},
        ScheduleCase{12, 1, {3, 11, 2055, 630}, {1, 11, 687, 240}, {}},
        ScheduleCase{12, 2, {4, 13, 3171, 630}, {1, 13, 795, 480}, {}},
        ScheduleCase{12, 3, {5, 15, 4503, 630}, {1, 15, 903, 720}, {}},
        ScheduleCase{16, 1, {3, 9, 1731, 630}, {1, 9, 579, 240}, {}},
        ScheduleCase{16, 2, {4, 10, 2523, 630}, {1, 10, 633, 480}, {}},
        ScheduleCase{16, 3, {5, 12, 3693, 630}, {1, 12, 741, 720}, {}},
        ScheduleCase{16, 4, {5, 13, 3963, 630}, {1, 13, 795, 960}, {}},
        ScheduleCase{16, 8, {6, 20, 7023, 630}, {1, 20, 1173, 1920}, {}},
        ScheduleCase{32, 1, {3, 5, 1083, 630}, {1, 5, 363, 240}, {}},
        ScheduleCase{32, 2, {4, 5, 1443, 630}, {1, 5, 363, 480}, {}},
        ScheduleCase{32, 4, {5, 7, 2343, 630}, {1, 7, 471, 960}, {}},
        ScheduleCase{32, 8, {6, 10, 3783, 630}, {1, 10, 633, 1920}, {}}));

}  // namespace
}  // namespace mobile::compile

// Theorem 3.5 / Theorem 1.6: the byzantine tree-packing compiler.
#include <gtest/gtest.h>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/byz_tree_compiler.h"
#include "compile/expander_packing.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "sim/network.h"

namespace mobile::compile {
namespace {

using sim::Algorithm;
using sim::Network;

sim::Algorithm gossipPayload(const graph::Graph& g, int rounds) {
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()));
  for (std::size_t i = 0; i < inputs.size(); ++i)
    inputs[i] = 0xabc000 + i;
  return algo::makeGossipHash(g, rounds, inputs, 32);
}

TEST(ByzCompiler, ScheduleArithmetic) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  ByzOptions opts;
  const ByzSchedule s = ByzSchedule::compute(*pk, 3, 2, opts);
  EXPECT_GT(s.z, 0);
  EXPECT_EQ(s.sketchSteps, 2 * pk->depthBound + 1);
  EXPECT_EQ(s.roundsPerSimRound, 1 + s.z * s.roundsPerIteration);
  EXPECT_EQ(s.totalRounds, 3 * s.roundsPerSimRound);
}

TEST(ByzCompiler, EquivalenceNoAdversary) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 1);
  Network net(g, compiled, 5);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

class ByzAdversarySweep : public ::testing::TestWithParam<int> {};

TEST_P(ByzAdversarySweep, EquivalenceUnderMobileByzantine) {
  const int f = GetParam();
  const graph::Graph g = graph::clique(16);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  auto shared = std::make_shared<ByzShared>();
  const Algorithm compiled =
      compileByzantineTree(g, inner, pk, f, {}, shared);
  adv::RandomByzantine adv(f, 100 + static_cast<std::uint64_t>(f));
  Network net(g, compiled, 7, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want) << "f=" << f;
}

INSTANTIATE_TEST_SUITE_P(Fs, ByzAdversarySweep, ::testing::Values(1, 2, 3));

TEST(ByzCompiler, EquivalenceUnderCampingAdversary) {
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2);
  adv::CampingByzantine adv({0, 5}, 2, 77);
  Network net(g, compiled, 9, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, EquivalenceUnderTreeTargetedAdversary) {
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  const graph::TreePacking stars = graph::cliqueStarPacking(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2);
  adv::TreeTargetedByzantine adv(2, stars, g, 55);
  Network net(g, compiled, 3, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, BitflipAdversaryCorrected) {
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2);
  adv::BitflipByzantine adv(2, 13);
  Network net(g, compiled, 21, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, MismatchDecayLemma38) {
  // Lemma 3.8: B_j <= 2f / 2^j; we check monotone decay to zero.
  const graph::Graph g = graph::clique(16);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  auto shared = std::make_shared<ByzShared>();
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2, {}, shared);
  adv::RandomByzantine adv(2, 3);
  Network net(g, compiled, 1, &adv);
  net.run(compiled.rounds);
  ASSERT_FALSE(shared->bj.empty());
  for (const auto& row : shared->bj) {
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(row.back(), 0) << "mismatches must vanish by the last iteration";
  }
}

TEST(ByzCompiler, BfsPayloadWithAbsentMessages) {
  // BFS sends nothing on most slots: exercises the absent-message chunk
  // encoding.
  const graph::Graph g = graph::clique(10);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = algo::makeBfsTree(g, 0, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 1);
  adv::RandomByzantine adv(1, 7);
  Network net(g, compiled, 23, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, GreedyPackingSubstrate) {
  // General-graph substrate: hypercube + Appendix C packing (trusted
  // preprocessing, Corollary 3.9).
  const graph::Graph g = graph::hypercube(4);
  const graph::TreePacking p = graph::greedyLowDepthPacking(g, 8, 0, 6);
  const auto pk = distributePacking(g, p, 6);
  const Algorithm inner = gossipPayload(g, 1);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 1);
  adv::RandomByzantine adv(1, 9);
  Network net(g, compiled, 29, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, SparseOneShotEquivalence) {
  // Section 1.2.2 variant: one-shot sparse recovery instead of z l0 rounds.
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  ByzOptions opts;
  opts.correction = CorrectionMode::SparseOneShot;
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2, opts);
  adv::RandomByzantine adv(2, 19);
  Network net(g, compiled, 3, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, SparseOneShotScheduleIsOneIteration) {
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  ByzOptions opts;
  opts.correction = CorrectionMode::SparseOneShot;
  const ByzSchedule s = ByzSchedule::compute(*pk, 2, 2, opts);
  EXPECT_EQ(s.z, 1);
  const ByzSchedule l0 = ByzSchedule::compute(*pk, 2, 2, {});
  EXPECT_LT(s.roundsPerSimRound, l0.roundsPerSimRound);
}

TEST(ByzCompiler, SparseOneShotUnderCampingAdversary) {
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = gossipPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  ByzOptions opts;
  opts.correction = CorrectionMode::SparseOneShot;
  const Algorithm compiled = compileByzantineTree(g, inner, pk, 2, opts);
  adv::CampingByzantine adv({1, 7}, 2, 23);
  Network net(g, compiled, 5, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(ByzCompiler, UncompiledFailsUnderSameAdversary) {
  // Negative control: without the compiler the same adversary corrupts the
  // computation.
  const graph::Graph g = graph::clique(12);
  const Algorithm inner = gossipPayload(g, 3);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  adv::RandomByzantine adv(2, 100);
  Network net(g, inner, 7, &adv);
  net.run(inner.rounds);
  EXPECT_NE(net.outputsFingerprint(), want);
}

}  // namespace
}  // namespace mobile::compile

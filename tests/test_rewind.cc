// Theorem 4.1: the rewind-if-error compiler against round-error-rate
// adversaries, with potential-function instrumentation (Eq. 10).
#include <map>

#include <gtest/gtest.h>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/expander_packing.h"
#include "compile/rewind_compiler.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace mobile::compile {
namespace {

using sim::Algorithm;
using sim::Network;

sim::Algorithm pingPayload(const graph::Graph& g, int rounds) {
  return algo::makePingPong(g, 0, 1, rounds, 0x111, 0x222, 32);
}

TEST(Rewind, ScheduleShape) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const RewindSchedule s = rewindSchedule(*pk, 3, 1, {});
  EXPECT_EQ(s.globalRounds, 15);
  EXPECT_EQ(s.totalRounds, s.globalRounds * s.roundsPerGlobal);
  EXPECT_GT(s.initRounds, 0);
  EXPECT_GT(s.correctionRounds, 0);
  EXPECT_GT(s.consensusRounds, 0);
}

TEST(Rewind, GammaMatchesFaultFreeRun) {
  const graph::Graph g = graph::clique(4);
  std::vector<std::uint64_t> inputs{10, 20, 30, 40};
  const Algorithm inner = algo::makeGossipHash(g, 2, inputs, 32);
  auto shared = std::make_shared<RewindShared>();
  computeGamma(g, inner, 1, 6, shared.get());
  // Every arc transcript has the padded length; round-1 symbols are the
  // actual (present) first-round messages.
  for (const auto& [arc, trans] : shared->gamma) {
    EXPECT_EQ(trans.size(), 6u);
    EXPECT_TRUE(trans[0] & (1ULL << 32));  // present in round 1
    EXPECT_EQ(trans[5], 1ULL << 34);       // bottom padding
  }
}

TEST(Rewind, EquivalenceNoAdversary) {
  const graph::Graph g = graph::clique(6);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 3);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileRewind(g, inner, pk, 1);
  Network net(g, compiled, 3);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, EquivalenceGossipNoAdversary) {
  const graph::Graph g = graph::clique(6);
  const auto pk = cliquePackingKnowledge(g);
  std::vector<std::uint64_t> inputs(6, 9);
  const Algorithm inner = algo::makeGossipHash(g, 2, inputs, 32);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  const Algorithm compiled = compileRewind(g, inner, pk, 1);
  Network net(g, compiled, 5);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, PotentialRisesWithoutAdversary) {
  const graph::Graph g = graph::clique(6);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 2);
  auto shared = std::make_shared<RewindShared>();
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, 1, {});
  computeGamma(g, inner, 1,
               static_cast<int>(sched.globalRounds) + inner.rounds,
               shared.get());
  const Algorithm compiled = compileRewind(g, inner, pk, 1, {}, shared);
  Network net(g, compiled, 7);
  net.run(compiled.rounds);
  ASSERT_EQ(shared->phi.size(), static_cast<std::size_t>(sched.globalRounds));
  // Lemma 4.9: every good global round raises Phi by >= 1; with no
  // adversary all rounds are good.
  for (std::size_t i = 1; i < shared->phi.size(); ++i)
    EXPECT_GE(shared->phi[i], shared->phi[i - 1] + 1);
  EXPECT_GE(shared->phi.back(), static_cast<long>(inner.rounds));
}

TEST(Rewind, EquivalenceUnderBurstAdversary) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  RewindOptions opts;
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, 1, opts);
  // Round-error rate f=1 on average: total budget = totalRounds, spent in
  // bursts of 40 edges.
  adv::BurstByzantine adv(1, sched.totalRounds / 4, /*quiet=*/9, /*width=*/40,
                          3);
  const Algorithm compiled = compileRewind(g, inner, pk, 1, opts);
  Network net(g, compiled, 9, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, PotentialNetProgressUnderAdversary) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 2);
  RewindOptions opts;
  auto shared = std::make_shared<RewindShared>();
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, 1, opts);
  computeGamma(g, inner, 1,
               static_cast<int>(sched.globalRounds) + inner.rounds,
               shared.get());
  adv::BurstByzantine adv(1, sched.totalRounds / 4, /*quiet=*/9, /*width=*/40,
                          11);
  const Algorithm compiled = compileRewind(g, inner, pk, 1, opts, shared);
  Network net(g, compiled, 13, &adv);
  net.run(compiled.rounds);
  // Lemma 4.10: Phi(r') >= r at the end.
  ASSERT_FALSE(shared->phi.empty());
  EXPECT_GE(shared->phi.back(), static_cast<long>(inner.rounds));
}

TEST(Rewind, RandomByzantineWithinRate) {
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  std::vector<std::uint64_t> inputs(8, 4);
  const Algorithm inner = algo::makeGossipHash(g, 2, inputs, 32);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  RewindOptions opts;
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, 2, opts);
  adv::BurstByzantine adv(2, sched.totalRounds / 8, /*quiet=*/3, /*width=*/8,
                          21);
  const Algorithm compiled = compileRewind(g, inner, pk, 2, opts);
  Network net(g, compiled, 31, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, Theorem412ExpanderPipeline) {
  // Theorem 4.12: compute the packing with padded rounds under a
  // round-error-rate adversary, then run the rewind compiler over it.
  const graph::Graph g = graph::clique(16);  // dense expander, phi ~ 1/2
  ExpanderPackingOptions popts;
  popts.k = 4;
  popts.bfsRounds = 5;
  popts.padRepetition = 3;
  auto result = std::make_shared<ExpanderPackingResult>();
  const Algorithm packer = makeExpanderPackingProtocol(g, popts, result);
  adv::BurstByzantine packAdv(1, packer.rounds / 3, 2, 1, 51);
  Network packNet(g, packer, 53, &packAdv);
  packNet.run(packer.rounds);
  const WeakPackingQuality q = assessWeakPacking(g, *result->knowledge);
  ASSERT_GE(q.goodTrees, popts.k - 1);

  const Algorithm inner = pingPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  RewindOptions opts;
  const RewindSchedule sched =
      rewindSchedule(*result->knowledge, inner.rounds, 1, opts);
  adv::BurstByzantine runAdv(1, sched.totalRounds / 6, 9, 30, 57);
  const Algorithm compiled =
      compileRewind(g, inner, result->knowledge, 1, opts);
  Network net(g, compiled, 59, &runAdv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, StaticByzantineIsSpecialCase) {
  // A fixed-target adversary is weaker than round-error-rate with the same
  // per-round budget; the compiler must survive it trivially.
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  RewindOptions opts;
  adv::CampingByzantine adv({3}, 1, 61);
  const Algorithm compiled = compileRewind(g, inner, pk, 4, opts);
  Network net(g, compiled, 63, &adv);
  net.run(compiled.rounds);
  EXPECT_EQ(net.outputsFingerprint(), want);
}

TEST(Rewind, ScriptedOverloadForcesRewindsAndRecovers) {
  // Surgical in-contract attack: camp 6 edges through the whole
  // round-initialization phase of the first two global rounds -- more
  // simultaneous tuple corruptions than the d = 4f correction capacity.
  // The network MUST detect divergence (GoodState = 0), rewind, and still
  // finish with the fault-free outputs (Lemma 4.10).
  const graph::Graph g = graph::clique(8);
  const auto pk = cliquePackingKnowledge(g);
  const Algorithm inner = pingPayload(g, 2);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  RewindOptions opts;
  auto shared = std::make_shared<RewindShared>();
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, 1, opts);
  computeGamma(g, inner, 1,
               static_cast<int>(sched.globalRounds) + inner.rounds,
               shared.get());
  std::map<int, std::vector<graph::EdgeId>> outage;
  for (int gr = 0; gr < 2; ++gr)
    for (int r = 1; r <= sched.initRounds; ++r)
      outage[gr * sched.roundsPerGlobal + r] = {0, 1, 2, 3, 4, 5};
  adv::ScriptedByzantine adv(outage, sched.totalRounds, 91);
  const Algorithm compiled = compileRewind(g, inner, pk, 1, opts, shared);
  Network net(g, compiled, 93, &adv);
  net.run(compiled.rounds);
  // The rewind branch actually fired...
  int badRounds = 0;
  for (const int good : shared->networkGoodState)
    if (good == 0) ++badRounds;
  EXPECT_GE(badRounds, 1) << "attack should force at least one bad round";
  // ...and the network still converged.
  EXPECT_EQ(net.outputsFingerprint(), want);
  EXPECT_GE(shared->phi.back(), static_cast<long>(inner.rounds));
}

}  // namespace
}  // namespace mobile::compile

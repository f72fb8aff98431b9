// Lemma 3.3: scheduled tree protocols -- all but O(f * eta) trees end
// correctly under an f-mobile byzantine adversary.
#include <gtest/gtest.h>

#include "adv/strategies.h"
#include "compile/expander_packing.h"
#include "compile/rs_engine.h"
#include "compile/rs_scheduler.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "sim/network.h"

namespace mobile::compile {
namespace {

using sim::Algorithm;
using sim::Network;

TEST(RsScheduler, AllTreesCorrectWithoutAdversary) {
  const graph::Graph g = graph::clique(10);
  const auto pk = cliquePackingKnowledge(g);
  auto shared = std::make_shared<ScheduledBroadcastShared>();
  const Algorithm a = makeScheduledTreeBroadcast(g, pk, /*rho=*/3, shared);
  Network net(g, a, 1);
  net.run(a.rounds);
  EXPECT_EQ(countCorrectTrees(*shared, *pk), pk->k);
}

TEST(RsScheduler, SlotScheduleArithmetic) {
  const SlotSchedule s{3, 2};
  EXPECT_EQ(s.roundsPerStep(), 6);
  EXPECT_EQ(s.blockRounds(4), 24);
  EXPECT_EQ(s.stepOf(0), 0);
  EXPECT_EQ(s.stepOf(5), 0);
  EXPECT_EQ(s.stepOf(6), 1);
  EXPECT_EQ(s.repOf(0), 0);
  EXPECT_EQ(s.repOf(3), 1);
  EXPECT_EQ(s.slotOf(4), 1);
}

class SchedulerAdversarySweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerAdversarySweep, MostTreesSurviveMobileAttack) {
  const int f = GetParam();
  const graph::Graph g = graph::clique(16);
  const auto pk = cliquePackingKnowledge(g);
  auto shared = std::make_shared<ScheduledBroadcastShared>();
  const Algorithm a = makeScheduledTreeBroadcast(g, pk, /*rho=*/3, shared);
  adv::RandomByzantine adv(f, 42 + static_cast<std::uint64_t>(f));
  Network net(g, a, 7, &adv);
  net.run(a.rounds);
  const int correct = countCorrectTrees(*shared, *pk);
  // Budget argument: the adversary spends f * rounds edge-rounds; flipping
  // one tree's delivery needs ceil(rho/2) = 2 hits on that tree's window.
  const int rounds = a.rounds;
  const int maxBad = f * rounds / 2;
  EXPECT_GE(correct, pk->k - maxBad);
  // And concretely, a strong majority must survive for small f.
  if (f <= 2) {
    EXPECT_GE(correct, (pk->k * 3) / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Fs, SchedulerAdversarySweep,
                         ::testing::Values(1, 2, 4));

TEST(RsScheduler, CampingAdversaryKillsOnlyTouchedTrees) {
  // A camping adversary on one edge can only damage the <= eta trees using
  // that edge.
  const graph::Graph g = graph::clique(12);
  const auto pk = cliquePackingKnowledge(g);
  auto shared = std::make_shared<ScheduledBroadcastShared>();
  const Algorithm a = makeScheduledTreeBroadcast(g, pk, /*rho=*/3, shared);
  adv::CampingByzantine adv({0}, 1, 9);
  Network net(g, a, 11, &adv);
  net.run(a.rounds);
  EXPECT_GE(countCorrectTrees(*shared, *pk), pk->k - pk->eta);
}

}  // namespace
}  // namespace mobile::compile

#include <gtest/gtest.h>

#include "adv/adversary.h"
#include "adv/strategies.h"
#include "algo/payloads.h"
#include "graph/generators.h"
#include "sim/network.h"

namespace mobile::adv {
namespace {

using sim::Algorithm;
using sim::Network;

TEST(Adversary, MobileByzantineBudgetEnforced) {
  const graph::Graph g = graph::clique(5);
  const Algorithm a = algo::makeFloodMax(g, 3);
  // Strategy that tries to corrupt f+1 edges.
  class Greedy final : public Adversary {
   public:
    Greedy() : Adversary({Kind::Byzantine, Mobility::Mobile, 2, 0, {}}) {}
    void act(TamperView& view) override {
      util::Rng rng(1);
      for (graph::EdgeId e = 0; e < 3; ++e)
        view.corruptEdge(e, garbageMsg(rng), garbageMsg(rng));
    }
  } adv;
  Network net(g, a, 1, &adv);
  EXPECT_THROW(net.run(1), std::logic_error);
}

TEST(Adversary, StaticConfinedToFStar) {
  const graph::Graph g = graph::clique(5);
  const Algorithm a = algo::makeFloodMax(g, 3);
  class Stray final : public Adversary {
   public:
    Stray() : Adversary({Kind::Byzantine, Mobility::Static, 2, 0, {0, 1}}) {}
    void act(TamperView& view) override {
      util::Rng rng(1);
      view.corruptEdge(5, garbageMsg(rng), garbageMsg(rng));  // outside F*
    }
  } adv;
  Network net(g, a, 1, &adv);
  EXPECT_THROW(net.run(1), std::logic_error);
}

TEST(Adversary, RoundErrorRateTotalBudget) {
  const graph::Graph g = graph::clique(5);
  const Algorithm a = algo::makeFloodMax(g, 10);
  // Budget 4 total; burst strategy obeying the view's remaining() counter.
  BurstByzantine adv(/*f=*/1, /*totalBudget=*/4, /*quiet=*/0, /*width=*/3, 7);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_LE(net.ledger().total(), 4);
}

TEST(Adversary, LedgerRecordsGroundTruth) {
  const graph::Graph g = graph::cycle(6);
  const Algorithm a = algo::makeFloodMax(g, 4);
  CampingByzantine adv({2}, 1, 3);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_EQ(net.ledger().byRound().size(), 4u);
  for (const auto& round : net.ledger().byRound()) {
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0], 2);
  }
}

TEST(Adversary, EavesdropperViewIsRecorded) {
  const graph::Graph g = graph::cycle(5);
  const Algorithm a = algo::makeFloodMax(g, 3);
  CampingEavesdropper adv({1, 3}, 2);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_EQ(adv.viewLog().size(), 6u);  // 2 edges x 3 rounds
  for (const auto& rec : adv.viewLog())
    EXPECT_TRUE(rec.edge == 1 || rec.edge == 3);
}

TEST(Adversary, EavesdropperCannotPeek) {
  const graph::Graph g = graph::cycle(4);
  const Algorithm a = algo::makeFloodMax(g, 2);
  class Peeker final : public Adversary {
   public:
    Peeker() : Adversary({Kind::Eavesdrop, Mobility::Mobile, 1, 0, {}}) {}
    void act(TamperView& view) override { (void)view.peek(0); }
  } adv;
  Network net(g, a, 1, &adv);
  EXPECT_THROW(net.run(1), std::logic_error);
}

TEST(Adversary, PeekAfterRewriteSeesReplacementAcrossSlabGrowth) {
  // A view is valid until its storage is next written, so a strategy
  // re-peeks after writing.  The fresh peek returns the replacement, also
  // once further rewrites have grown (and moved) the adversary slab.
  const graph::Graph g = graph::clique(8);
  const Algorithm a = algo::makeFloodMax(g, 1);
  class Rewriter final : public Adversary {
   public:
    explicit Rewriter(int f)
        : Adversary({Kind::Byzantine, Mobility::Mobile, f, 0, {}}) {}
    void act(TamperView& view) override {
      const sim::Msg replacement = sim::Msg::of(0xa1).push(0xa2).push(0xa3);
      view.corruptArc(0, replacement);
      afterRewrite = view.peek(0) == replacement;
      capacityBefore = net->arcs().capacityWords();
      sim::Msg wide;
      for (std::uint64_t w = 0; w < 512; ++w) wide.push(w);
      for (graph::ArcId b = 1; b < view.graph().arcCount(); ++b)
        view.corruptArc(b, wide);
      capacityAfter = net->arcs().capacityWords();
      afterGrowth = view.peek(0) == replacement;
      lastIsWide = view.peek(view.graph().arcCount() - 1) == wide;
    }
    const Network* net = nullptr;
    bool afterRewrite = false, afterGrowth = false, lastIsWide = false;
    std::size_t capacityBefore = 0, capacityAfter = 0;
  } adv(static_cast<int>(g.edgeCount()));
  Network net(g, a, 1, &adv);
  adv.net = &net;
  net.run(1);
  EXPECT_TRUE(adv.afterRewrite);
  EXPECT_GT(adv.capacityAfter, adv.capacityBefore);  // the slab grew
  EXPECT_TRUE(adv.afterGrowth);
  EXPECT_TRUE(adv.lastIsWide);
  EXPECT_EQ(net.ledger().total(), g.edgeCount());
}

TEST(Adversary, ByzantineCorruptionChangesOutputs) {
  const graph::Graph g = graph::cycle(8);
  std::vector<std::uint64_t> inputs(8, 3);
  const Algorithm a = algo::makeGossipHash(g, 6, inputs);
  const std::uint64_t clean = sim::faultFreeFingerprint(g, a, 1);
  RandomByzantine adv(2, 99);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_NE(net.outputsFingerprint(), clean);
}

TEST(Adversary, RotatingCoversAllEdges) {
  const graph::Graph g = graph::cycle(6);
  const Algorithm a = algo::makeFloodMax(g, 6);
  RotatingByzantine adv(2, 5);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  std::set<graph::EdgeId> touched;
  for (const auto& round : net.ledger().byRound())
    for (const auto e : round) touched.insert(e);
  EXPECT_EQ(touched.size(), 6u);
}

TEST(Adversary, TreeTargetedSpreadsHits) {
  const graph::Graph g = graph::clique(6);
  const graph::TreePacking packing = graph::cliqueStarPacking(g);
  const Algorithm a = algo::makeFloodMax(g, 12);
  TreeTargetedByzantine adv(1, packing, g, 3);
  Network net(g, a, 1, &adv);
  net.run(a.rounds);
  EXPECT_EQ(net.ledger().total(), 12);
}

}  // namespace
}  // namespace mobile::adv

// The preprocessing-parallelism contract (docs/architecture.md section 11):
// the pooled compile-time kernel -- greedy tree packing -- must be
// *bit-identical* to its sequential oracle at every thread count, and a
// compiled trial's fingerprint must be invariant across every (threads,
// shards) engine setting.  Differential coverage over random graphs plus a
// golden-fingerprint sweep for a packing-heavy compiled case.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "scn/params.h"
#include "scn/scenario.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace mobile;

namespace {

// Exact structural equality: roots, parents, parent edges, depths.  The
// determinism contract is bit-identity, not mere isomorphism.
void expectSamePacking(const graph::TreePacking& a,
                       const graph::TreePacking& b, int graphIdx) {
  ASSERT_EQ(a.commonRoot, b.commonRoot) << "graph " << graphIdx;
  ASSERT_EQ(a.trees.size(), b.trees.size()) << "graph " << graphIdx;
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    const graph::RootedTree& ta = a.trees[t];
    const graph::RootedTree& tb = b.trees[t];
    EXPECT_EQ(ta.root, tb.root) << "graph " << graphIdx << " tree " << t;
    EXPECT_EQ(ta.parent, tb.parent) << "graph " << graphIdx << " tree " << t;
    EXPECT_EQ(ta.parentEdge, tb.parentEdge)
        << "graph " << graphIdx << " tree " << t;
    EXPECT_EQ(ta.depth, tb.depth) << "graph " << graphIdx << " tree " << t;
  }
}

// Mixed family of small connected graphs: regular expanders, supercritical
// G(n, p), and chorded cycles (the high-diameter stressor for the
// level-synchronous BFS).
graph::Graph randomGraph(int i, util::Rng& rng) {
  const graph::NodeId n = 16 + 2 * (i % 17);
  switch (i % 3) {
    case 0:
      return graph::randomRegular(n, 4, rng);
    case 1:
      return graph::erdosRenyiConnected(n, 0.25, rng);
    default:
      return graph::cycleWithChords(n, 3 + i % 4, rng);
  }
}

}  // namespace

TEST(PreprocessParallel, PackingMatchesSequentialOracle) {
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  util::Rng rng(0xfeed);
  for (int i = 0; i < 200; ++i) {
    const graph::Graph g = randomGraph(i, rng);
    const int k = 2 + i % 3;
    const int cap = 2 * g.nodeCount();  // never the binding constraint here
    const graph::TreePacking seq =
        graph::greedyLowDepthPacking(g, k, 0, cap, nullptr);
    expectSamePacking(seq, graph::greedyLowDepthPacking(g, k, 0, cap, &pool2),
                      i);
    expectSamePacking(seq, graph::greedyLowDepthPacking(g, k, 0, cap, &pool8),
                      i);
  }
}

// The scenario-level golden: a packing-heavy compiled case (byz_tree over
// a greedy expander packing -- the scale_100k/scale_1m shape, shrunk to
// n = 64) must produce ONE fingerprint at every (threads, shards) in
// {1, 2, 8}^2.  One TrialBuilder serves all nine points, so the compile
// pool the builder lends to the PrecomputeCache is also exercised at
// every size.
TEST(PreprocessParallel, GoldenFingerprintAcrossThreadsAndShards) {
  const std::string base =
      "graph=expander n=64 d=4 gseed=1 algo=gossip rounds=1 mask=32 "
      "compile=byz_tree mode=sparse f=1 packing=greedy k=2 depthcap=8 "
      "dmcap=2 seed=0";
  scn::TrialBuilder builder;
  std::uint64_t golden = 0;
  bool first = true;
  for (const int threads : {1, 2, 8}) {
    for (const int shards : {1, 2, 8}) {
      scn::Params p = scn::Params::fromTokens(base);
      p.set("threads", std::to_string(threads));
      p.set("shards", std::to_string(shards));
      exp::ExperimentDriver driver({1});
      const auto results = driver.runAll({builder.build(p, "golden")});
      ASSERT_EQ(results.size(), 1u);
      ASSERT_TRUE(results[0].ok)
          << "threads=" << threads << " shards=" << shards << " error='"
          << results[0].error << "'";
      if (first) {
        golden = results[0].fingerprint;
        first = false;
      }
      EXPECT_EQ(results[0].fingerprint, golden)
          << "threads=" << threads << " shards=" << shards;
    }
  }
  EXPECT_NE(golden, 0u);
}

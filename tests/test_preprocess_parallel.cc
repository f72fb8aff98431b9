// The preprocessing determinism contract (docs/architecture.md section 11):
// compile preprocessing -- greedy tree packing and its distribution into
// PackingKnowledge -- is pinned by digests captured from the historical
// sequential builder, distributePacking and freezePackingViews fill the
// same flat arrays from the same trees, and a compiled trial's fingerprint
// is invariant across every (threads, shards) engine setting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "compile/common.h"
#include "exp/experiment.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "scn/params.h"
#include "scn/scenario.h"
#include "util/rng.h"

using namespace mobile;

namespace {

// FNV-1a over a sequence of integers, each widened to 64 bits.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void addAll(const std::vector<T>& xs) {
    add(static_cast<std::int64_t>(xs.size()));
    for (const T x : xs) add(static_cast<std::int64_t>(x));
  }
};

// Exact structure, not isomorphism: roots, parents, parent edges, depths.
void addPacking(Digest& d, const graph::TreePacking& p) {
  d.add(p.commonRoot);
  d.add(static_cast<std::int64_t>(p.trees.size()));
  for (const graph::RootedTree& t : p.trees) {
    d.add(t.root);
    d.addAll(t.parent);
    d.addAll(t.parentEdge);
    d.addAll(t.depth);
  }
}

void addKnowledge(Digest& d, const compile::PackingKnowledge& pk) {
  d.add(pk.root);
  d.add(pk.k);
  d.add(pk.eta);
  d.add(pk.depthBound);
  d.add(pk.n);
  d.addAll(pk.parentFlat);
  d.addAll(pk.depthFlat);
  d.addAll(pk.childOff);
  d.addAll(pk.childList);
  d.addAll(pk.arcOff);
  d.addAll(pk.arcNbr);
  d.addAll(pk.arcTreeOff);
  d.addAll(pk.arcTreeList);
}

// Mixed family of small connected graphs: regular expanders, supercritical
// G(n, p), and chorded cycles (the high-diameter stressor for the
// depth-capped Prim growth).
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

// The staged per-node form of a centralized packing: every node believes
// exactly what the trees say.
std::vector<compile::StagedNodeView> stagedViews(const graph::TreePacking& p,
                                                 graph::NodeId n) {
  std::vector<compile::StagedNodeView> staged(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < staged.size(); ++v) {
    for (const graph::RootedTree& t : p.trees) {
      staged[v].parent.push_back(t.parent[v]);
      staged[v].children.push_back(t.children[v]);
      staged[v].depth.push_back(t.depth[v]);
    }
  }
  return staged;
}

}  // namespace

// Golden: digests of the tree packings and their PackingKnowledge, taken
// from the sequential builder that every pooled run was once checked
// against bit for bit.
TEST(PreprocessParallel, PackingMatchesSequentialOracle) {
  util::Rng rng(0xfeed);
  Digest trees;
  Digest knowledge;
  for (int i = 0; i < 200; ++i) {
    const graph::Graph g = randomGraph(i, rng);
    const int k = 2 + i % 3;
    const int cap = 2 * g.nodeCount();  // never the binding constraint here
    const graph::TreePacking p = graph::greedyLowDepthPacking(g, k, 0, cap);
    addPacking(trees, p);
    addKnowledge(knowledge, *compile::distributePacking(g, p, cap));
  }
  EXPECT_EQ(trees.h, 0x2fc16d352f4e4828ull);
  EXPECT_EQ(knowledge.h, 0xb72f3d7e26d42a4cull);
}

// distributePacking and freezePackingViews share one fill: the same trees
// through either entry point give equal flat arrays.  Random-partition
// packings add non-spanning trees (parent -1, depth -1 off the tree).
TEST(PreprocessParallel, DistributeAndFreezeFillTheSameArrays) {
  util::Rng rng(0xbeef);
  for (int i = 0; i < 30; ++i) {
    const graph::Graph g = randomGraph(i, rng);
    const int k = 2 + i % 4;
    const graph::TreePacking p =
        i % 2 == 0 ? graph::greedyLowDepthPacking(g, k, 0, 4)
                   : graph::randomPartitionPacking(g, k, 0, rng);
    const auto want = compile::distributePacking(g, p, 4);
    compile::PackingKnowledge got;
    got.k = k;
    compile::freezePackingViews(got, g, stagedViews(p, g.nodeCount()));
    EXPECT_EQ(got.n, want->n) << "graph " << i;
    EXPECT_EQ(got.parentFlat, want->parentFlat) << "graph " << i;
    EXPECT_EQ(got.depthFlat, want->depthFlat) << "graph " << i;
    EXPECT_EQ(got.childOff, want->childOff) << "graph " << i;
    EXPECT_EQ(got.childList, want->childList) << "graph " << i;
    EXPECT_EQ(got.arcOff, want->arcOff) << "graph " << i;
    EXPECT_EQ(got.arcNbr, want->arcNbr) << "graph " << i;
    EXPECT_EQ(got.arcTreeOff, want->arcTreeOff) << "graph " << i;
    EXPECT_EQ(got.arcTreeList, want->arcTreeList) << "graph " << i;
  }
}

// The scenario-level golden: a packing-heavy compiled case (byz_tree over
// a greedy expander packing -- the scale_100k/scale_1m shape, shrunk to
// n = 64) must produce ONE fingerprint at every (threads, shards) in
// {1, 2, 8}^2.  One TrialBuilder serves all nine points.
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
  EXPECT_EQ(golden, 0xabe44aa2c13817c8ull);  // captured before the refactor
}

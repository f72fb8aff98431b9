// The scheduled tree stages on a hand-built two-tree packing.
//
// Receive predicates: for every stage, expects(view, tree, from, step) is
// true exactly when a right-sized hop on that arc at that step changes the
// stage; the down-wave and consensus filters accept exactly the hops their
// senders send, and the sketch up-wave filter alone is step-free.  ArcVotes
// never reads an arc its stage rejects, and an arc accepted after a
// rejected step decodes a fresh majority.
//
// SketchConvergecast, the up-wave sketch stage, over both sketch types:
// the root's merged sketch equals one sketch of every node's entries, also
// once every non-root has dropped its children's sums; a hop is built once
// per step and rebuilt after a child merges mid-step; wrong-sized or
// non-child hops are not merged; and the thread-local scratch keeps stages
// of different shapes apart, interleaved on one thread or run on two
// threads at once, and keeps an l0 bundle reseeded on each thread exact.
//
// MismatchCorrection, the whole correction block: its step count is the
// sketch block plus one down-wave per hop message of shares, in 64 bits;
// on the fault-free packing one block with a planted mismatch hands the
// root's DM key to the patch callable of its receiver alone, under both
// child rules and both share bundles.  SharedDmCodec hands every node,
// on any thread, the one codec it builds.
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "compile/tree_stages.h"
#include "graph/graph.h"
#include "sketch/l0sampler.h"
#include "sketch/sparse_recovery.h"

namespace mobile::compile {
namespace {

using graph::Graph;
using graph::NodeId;
using sketch::L0Bundle;
using sketch::SparseRecovery;

constexpr NodeId kN = 6;
constexpr int kDepthBound = 3;
/// k = 2 trees and a cap of one key make 5 chunks; at one share per hop,
/// five down-waves of kDepthBound + 1 steps.
constexpr int kShareSteps = 5 * (kDepthBound + 1);

const Graph& graphOf() {
  static const Graph graph = [] {
    Graph g(kN);
    for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
             {0, 1}, {1, 2}, {2, 3}, {1, 4}, {2, 5}, {0, 2}, {0, 3}, {3, 4},
             {4, 5}})
      g.addEdge(u, v);
    g.finalize();
    return g;
  }();
  return graph;
}

/// Six nodes, two spanning trees rooted at 0:
///   tree 0: the path 0-1-2-3 with 4 under 1 and 5 under 2 (depth 3);
///   tree 1: the star 0-{1,2,3} with 4 under 3 and 5 under 4.
const PackingKnowledge& packing() {
  static const std::shared_ptr<PackingKnowledge> pk = [] {
    const Graph& g = graphOf();
    graph::TreePacking p;
    p.commonRoot = 0;
    for (const std::vector<NodeId>& parents :
         {std::vector<NodeId>{-1, 0, 1, 2, 1, 2},
          std::vector<NodeId>{-1, 0, 0, 0, 3, 4}})
      p.trees.push_back(graph::RootedTree::fromParents(0, parents, g));
    return distributePacking(g, p, kDepthBound);
  }();
  return *pk;
}

/// Tree `tree`'s sketch seed in run `run` (runs draw disjoint seeds).
std::uint64_t seedOf(int tree, std::uint64_t run = 0) {
  return 0x5eed00 + 0x100 * run + static_cast<std::uint64_t>(tree);
}

/// Node v's stream: two keys of its own and one shared by every node.
StreamEntries entriesOf(NodeId v) {
  const auto k = static_cast<std::uint64_t>(v);
  return {{1000 + 10 * k, +1}, {2000 + 10 * k, -2}, {7, +1}};
}

/// The DM codec of the packing's k trees at cap `dmCap`.
std::shared_ptr<const DmCodec> codecOf(int dmCap) {
  return std::make_shared<const DmCodec>(packing().k, dmCap);
}

template <class Sketch>
std::vector<std::uint64_t> wordsOf(const Sketch& s) {
  std::vector<std::uint64_t> words;
  s.appendTo(words);
  return words;
}

/// One sketch fed every node's entries: what the root must read.
template <class Sketch>
std::vector<std::uint64_t> referenceWords(int tree,
                                          typename Sketch::Shape shape) {
  Sketch s(seedOf(tree), shape);
  for (NodeId v = 0; v < kN; ++v)
    for (const auto& [key, freq] : entriesOf(v)) s.update(key, freq);
  return wordsOf(s);
}

/// Every node's stage of one convergecast, with hops delivered at once:
/// a node's children all send at earlier up-wave steps than it does.  The
/// trees' seeds are those of run `run`.
template <class Sketch>
class Upcast {
 public:
  explicit Upcast(typename Sketch::Shape shape, std::uint64_t run = 0)
      : run_(run) {
    for (NodeId v = 0; v < kN; ++v)
      stages_.emplace_back(shape, kDepthBound, ChildRule::AsListed);
    for (auto& s : stages_) s.start();
  }

  void step(int step) {
    const PackingKnowledge& pk = packing();
    for (NodeId v = 0; v < kN; ++v) {
      const NodeTreeView view = pk.view(v);
      for (int t = 0; t < pk.k; ++t) {
        for (int i = 0; i < view.degree(); ++i) {
          const NodeId to = view.neighborAt(i);
          const sim::Msg* m = stage(v).send(view, t, to, step,
                                            seedOf(t, run_), entriesOf(v));
          if (m == nullptr) continue;
          EXPECT_TRUE(stage(to).receive(pk.view(to), t, v, step, *m));
        }
      }
    }
  }

  void run() {
    for (int s = 1; s <= kDepthBound + 1; ++s) step(s);
  }

  [[nodiscard]] std::vector<std::uint64_t> rootWords(int tree) const {
    return wordsOf(stage(0).merged(tree, seedOf(tree, run_), entriesOf(0)));
  }

  [[nodiscard]] SketchConvergecast<Sketch>& stage(NodeId v) {
    return stages_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const SketchConvergecast<Sketch>& stage(NodeId v) const {
    return stages_[static_cast<std::size_t>(v)];
  }

 private:
  std::uint64_t run_;
  std::vector<SketchConvergecast<Sketch>> stages_;
};

const SparseRecovery::Shape kSparseA{4, 3};
const L0Bundle::Shape kL0A{2, 10};

// --- receive predicates ------------------------------------------------------

/// Over every node, tree, neighbor and `step` in [1, steps]: a fresh stage
/// from makeStage() changes, as changed(stage, tree) reads it, exactly when
/// its expects() accepts the arc; the stage receives hop(tree, from).  At
/// least one arc must be accepted and one rejected.
template <class MakeStage, class Hop, class Changed>
void expectExpectsMatchesReceive(int steps, MakeStage makeStage, Hop hop,
                                 Changed changed) {
  const PackingKnowledge& pk = packing();
  int accepted = 0, rejected = 0;
  for (NodeId v = 0; v < kN; ++v) {
    const NodeTreeView view = pk.view(v);
    for (int t = 0; t < pk.k; ++t) {
      for (int i = 0; i < view.degree(); ++i) {
        const NodeId from = view.neighborAt(i);
        for (int step = 1; step <= steps; ++step) {
          auto stage = makeStage();
          const bool expects = stage.expects(view, t, from, step);
          stage.receive(view, t, from, step, hop(t, from));
          EXPECT_EQ(changed(stage, t), expects)
              << "node " << v << " tree " << t << " from " << from
              << " step " << step;
          ++(expects ? accepted : rejected);
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReceivePredicate, TreeFlood) {
  constexpr int kWidth = 2;
  expectExpectsMatchesReceive(
      kDepthBound + 1,
      [] {
        TreeFlood flood(ChildRule::AsListed, kWidth);
        flood.start(packing().k);
        return flood;
      },
      [](int, NodeId) { return sim::Msg().push(5).push(6); },
      [](const TreeFlood& flood, int tree) { return flood.has(tree); });
}

TEST(ReceivePredicate, ShareDowncast) {
  const auto make = [] {
    ShareDowncast down(codecOf(1), ShareBundle::OnePerHop, kDepthBound,
                       ChildRule::AsListed);
    down.start();
    return down;
  };
  expectExpectsMatchesReceive(
      kShareSteps, make, [](int, NodeId) { return sim::Msg::of(0xabc); },
      [](ShareDowncast& down, int tree) {
        for (const auto& chunk : down.shares())
          if (chunk[static_cast<std::size_t>(tree)] != gf::F16(0))
            return true;
        return false;
      });
}

template <class Sketch>
void expectSketchExpectsMatchesReceive(typename Sketch::Shape shape) {
  expectExpectsMatchesReceive(
      kDepthBound + 1,
      [shape] {
        SketchConvergecast<Sketch> up(shape, kDepthBound, ChildRule::AsListed);
        up.start();
        return up;
      },
      [shape](int tree, NodeId from) {
        SketchConvergecast<Sketch> child(shape, kDepthBound,
                                         ChildRule::AsListed);
        sim::Msg m;
        child.build(tree, seedOf(tree), entriesOf(from), m);
        return m;
      },
      [](const SketchConvergecast<Sketch>& up, int) {
        return up.heldWords() > 0;
      });
}

TEST(ReceivePredicate, SparseConvergecast) {
  expectSketchExpectsMatchesReceive<SparseRecovery>(kSparseA);
}

TEST(ReceivePredicate, L0Convergecast) {
  expectSketchExpectsMatchesReceive<L0Bundle>(kL0A);
}

TEST(ReceivePredicate, ConsensusUpcast) {
  using Vote = ConsensusUpcast::Vote;
  const Vote own{1, 0};
  expectExpectsMatchesReceive(
      kDepthBound,
      [] {
        ConsensusUpcast up(kDepthBound, ChildRule::ParentExcluded);
        up.start();
        return up;
      },
      [](int, NodeId) { return sim::Msg().push(0).push(99); },
      [own](const ConsensusUpcast& up, int tree) {
        return up.subtree(tree, own) != own;
      });
}

/// Over every arc u -> v, tree and `step` in [1, steps]: expects(view of
/// v, tree, u, step) holds exactly when sends(view of u, tree, v, step)
/// does.
template <class Sends, class Expects>
void expectFilterMatchesSender(int steps, Sends sends, Expects expects) {
  const PackingKnowledge& pk = packing();
  int hops = 0;
  for (NodeId v = 0; v < kN; ++v) {
    const NodeTreeView view = pk.view(v);
    for (int i = 0; i < view.degree(); ++i) {
      const NodeId u = view.neighborAt(i);
      for (int t = 0; t < pk.k; ++t) {
        for (int step = 1; step <= steps; ++step) {
          const bool sent = sends(pk.view(u), t, v, step);
          EXPECT_EQ(expects(view, t, u, step), sent)
              << u << " -> " << v << " tree " << t << " step " << step;
          hops += sent ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(hops, 0);
}

TEST(ReceivePredicate, DownWaveAndConsensusFiltersMatchTheSender) {
  // Every node holds every tree's value and every share, so a send is
  // decided by the hop rule alone.
  TreeFlood flood(ChildRule::AsListed);
  flood.start(packing().k);
  for (int t = 0; t < packing().k; ++t) flood.seed(t, {1});
  expectFilterMatchesSender(
      kDepthBound + 1,
      [&](const NodeTreeView& from, int t, NodeId to, int step) {
        return flood.send(from, t, to, step) != nullptr;
      },
      [&](const NodeTreeView& at, int t, NodeId from, int step) {
        return flood.expects(at, t, from, step);
      });

  ShareDowncast down(codecOf(1), ShareBundle::OnePerHop, kDepthBound,
                     ChildRule::AsListed);
  down.start();
  down.encode({0x1234});
  expectFilterMatchesSender(
      kShareSteps,
      [&](const NodeTreeView& from, int t, NodeId to, int step) {
        return down.send(from, t, to, step) != nullptr;
      },
      [&](const NodeTreeView& at, int t, NodeId from, int step) {
        return down.expects(at, t, from, step);
      });

  const ConsensusUpcast votes(kDepthBound, ChildRule::ParentExcluded);
  expectFilterMatchesSender(
      kDepthBound,
      [&](const NodeTreeView& from, int t, NodeId to, int step) {
        return votes.sends(from, t, to, step);
      },
      [&](const NodeTreeView& at, int t, NodeId from, int step) {
        return votes.expects(at, t, from, step);
      });
}

TEST(ReceivePredicate, UpWaveFiltersAreStepFreeOnlyForSketches) {
  // A child's sketch hop merges at any up-wave step; a consensus vote only
  // at the step its depth sends.  Node 3 is node 2's child in tree 0 and
  // sends at step 1.
  const NodeTreeView view = packing().view(2);
  const SketchConvergecast<SparseRecovery> sketches(kSparseA, kDepthBound,
                                                    ChildRule::AsListed);
  const ConsensusUpcast votes(kDepthBound, ChildRule::ParentExcluded);
  for (int step = 1; step <= kDepthBound; ++step) {
    EXPECT_TRUE(sketches.expects(view, 0, 3, step)) << step;
    EXPECT_EQ(votes.expects(view, 0, 3, step), step == 1) << step;
  }
}

// --- ArcVotes ----------------------------------------------------------------

/// A neighbor-keyed inbox that counts how often each sender is read.
class CountingInbox final : public sim::Inbox {
 public:
  explicit CountingInbox(NodeId self) : Inbox(graphOf(), self) {}
  std::map<NodeId, sim::Msg> msgs;
  mutable std::map<NodeId, int> reads;

  [[nodiscard]] sim::MsgView from(NodeId from) const override {
    ++reads[from];
    const auto it = msgs.find(from);
    return it == msgs.end() ? sim::MsgView() : sim::MsgView(it->second);
  }
};

/// A stage that accepts the arcs from `accepted` and records every hop.
struct ProbeStage {
  std::set<NodeId> accepted;
  std::vector<std::pair<NodeId, std::uint64_t>> hops;  // (from, word 0)

  bool expects(const NodeTreeView&, int, NodeId from, int) const {
    return accepted.count(from) != 0;
  }
  void receive(const NodeTreeView&, int, NodeId from, int,
               const sim::Msg& m) {
    hops.emplace_back(from, m.at(0));
  }
};

/// Runs one step of every slot and repetition at `self`; neighbor u sends
/// word(u, rep) in repetition `rep`.
template <class Word>
void runStep(ArcVotes& votes, const SlotSchedule& slots, NodeId self,
             int step, ProbeStage& stage, CountingInbox& in, Word word) {
  const NodeTreeView view = packing().view(self);
  for (int rep = 0; rep < slots.rho; ++rep) {
    for (int i = 0; i < view.degree(); ++i) {
      const NodeId u = view.neighborAt(i);
      in.msgs[u] = sim::Msg::of(word(u, rep));
    }
    for (int slot = 0; slot < slots.eta; ++slot)
      votes.receive(view, {step, rep, slot}, in, stage, step);
  }
}

TEST(ArcVotes, RejectedArcIsNeverRead) {
  // Node 2 hears 1, 3 and 5 over tree 0 and 0 over tree 1.
  const NodeId self = 2;
  const SlotSchedule slots{packing().eta, 3};
  ArcVotes votes(packing().view(self).degree(), slots);
  ProbeStage stage{{1, 5}, {}};
  CountingInbox in(self);
  runStep(votes, slots, self, 1, stage, in,
          [](NodeId u, int) { return static_cast<std::uint64_t>(u); });
  EXPECT_EQ(stage.hops,
            (std::vector<std::pair<NodeId, std::uint64_t>>{{1, 1}, {5, 5}}));
  EXPECT_EQ(in.reads[1], slots.rho);
  EXPECT_EQ(in.reads[5], slots.rho);
  EXPECT_EQ(in.reads.count(0), 0u);
  EXPECT_EQ(in.reads.count(3), 0u);
}

TEST(ArcVotes, ArcAcceptedAfterARejectedStepDecodesAFreshMajority) {
  // Node 3 sends A = 7 in all three repetitions of steps 1 and 2, then B,
  // A, B in step 3; the arc is accepted in steps 1 and 3 only.  A vote
  // carried over from an earlier step would make A the majority of step 3
  // (at least 4 to 2); a fresh slot reads B.
  const NodeId self = 2;
  const SlotSchedule slots{packing().eta, 3};
  ArcVotes votes(packing().view(self).degree(), slots);
  CountingInbox in(self);
  ProbeStage stage{{3}, {}};
  const auto sendA = [](NodeId, int) { return 7u; };
  runStep(votes, slots, self, 1, stage, in, sendA);
  stage.accepted.clear();
  runStep(votes, slots, self, 2, stage, in, sendA);
  EXPECT_EQ(stage.hops,
            (std::vector<std::pair<NodeId, std::uint64_t>>{{3, 7}}));
  stage.accepted = {3};
  runStep(votes, slots, self, 3, stage, in,
          [](NodeId, int rep) { return rep == 1 ? 7u : 9u; });
  EXPECT_EQ(stage.hops,
            (std::vector<std::pair<NodeId, std::uint64_t>>{{3, 7}, {3, 9}}));
}

// --- SketchConvergecast ------------------------------------------------------

const SparseRecovery::Shape kSparseB{8, 5};
const L0Bundle::Shape kL0B{3, 12};

template <class Sketch>
void expectRootMergesEveryNode(typename Sketch::Shape shape) {
  Upcast<Sketch> up(shape);
  up.run();
  for (int t = 0; t < packing().k; ++t)
    EXPECT_EQ(up.rootWords(t), referenceWords<Sketch>(t, shape)) << t;
}

TEST(SketchConvergecast, RootMergesEveryNodeSparse) {
  expectRootMergesEveryNode<SparseRecovery>(kSparseA);
}

TEST(SketchConvergecast, RootMergesEveryNodeL0) {
  expectRootMergesEveryNode<L0Bundle>(kL0A);
}

template <class Sketch>
void expectRootKeepsSumsNonRootsDrop(typename Sketch::Shape shape) {
  Upcast<Sketch> up(shape);
  up.run();
  up.step(kDepthBound + 2);  // past every node's send step
  for (NodeId v = 1; v < kN; ++v) EXPECT_EQ(up.stage(v).heldWords(), 0u) << v;
  EXPECT_GT(up.stage(0).heldWords(), 0u);
  for (int t = 0; t < packing().k; ++t)
    EXPECT_EQ(up.rootWords(t), referenceWords<Sketch>(t, shape)) << t;
}

TEST(SketchConvergecast, RootKeepsChildSumsNonRootsDropThemSparse) {
  expectRootKeepsSumsNonRootsDrop<SparseRecovery>(kSparseA);
}

TEST(SketchConvergecast, RootKeepsChildSumsNonRootsDropThemL0) {
  expectRootKeepsSumsNonRootsDrop<L0Bundle>(kL0A);
}

template <class Sketch>
void expectHopBuiltOncePerStep(typename Sketch::Shape shape) {
  // Node 2 sends up tree 0 to node 1 at step 2; nodes 3 and 5 are its
  // children there and send at step 1.
  const PackingKnowledge& pk = packing();
  const NodeTreeView view = pk.view(2);
  Upcast<Sketch> up(shape);
  up.step(1);
  const auto sendUp = [&] {
    const sim::Msg* m =
        up.stage(2).send(view, 0, 1, 2, seedOf(0), entriesOf(2));
    EXPECT_NE(m, nullptr);
    return m != nullptr ? m->words : std::vector<std::uint64_t>{};
  };
  const auto buildUp = [&] {
    sim::Msg m;
    up.stage(2).build(0, seedOf(0), entriesOf(2), m);
    return m.words;
  };
  const std::vector<std::uint64_t> first = sendUp();
  EXPECT_EQ(sendUp(), first);
  EXPECT_EQ(buildUp(), first);

  // A child's hop merges between two sends of the hop.
  sim::Msg child;
  up.stage(3).build(0, seedOf(0), StreamEntries{{31337, +1}}, child);
  EXPECT_TRUE(up.stage(2).receive(view, 0, 3, 1, child));
  const std::vector<std::uint64_t> second = sendUp();
  EXPECT_NE(second, first);
  EXPECT_EQ(second, buildUp());
  EXPECT_EQ(sendUp(), second);
}

TEST(SketchConvergecast, HopIsBuiltOncePerStepAndAfterAChildMergeSparse) {
  expectHopBuiltOncePerStep<SparseRecovery>(kSparseA);
}

TEST(SketchConvergecast, HopIsBuiltOncePerStepAndAfterAChildMergeL0) {
  expectHopBuiltOncePerStep<L0Bundle>(kL0A);
}

template <class Sketch>
void expectWrongHopsDropped(typename Sketch::Shape shape) {
  const PackingKnowledge& pk = packing();
  Upcast<Sketch> up(shape);
  // Node 1 is the root's child in both trees; node 4 is in neither.
  sim::Msg good;
  up.stage(1).build(0, seedOf(0), entriesOf(1), good);
  sim::Msg shorter = good;
  shorter.words.pop_back();
  sim::Msg longer = good;
  longer.words.push_back(0);
  EXPECT_FALSE(up.stage(0).receive(pk.view(0), 0, 1, 3, shorter));
  EXPECT_FALSE(up.stage(0).receive(pk.view(0), 0, 1, 3, longer));
  EXPECT_FALSE(up.stage(0).receive(pk.view(0), 0, 4, 3, good));

  Sketch own(seedOf(0), shape);
  for (const auto& [key, freq] : entriesOf(0)) own.update(key, freq);
  EXPECT_EQ(up.rootWords(0), wordsOf(own));
  EXPECT_TRUE(up.stage(0).receive(pk.view(0), 0, 1, 3, good));
  EXPECT_NE(up.rootWords(0), wordsOf(own));
}

TEST(SketchConvergecast, WrongSizedOrNonChildHopIsDroppedSparse) {
  expectWrongHopsDropped<SparseRecovery>(kSparseA);
}

TEST(SketchConvergecast, WrongSizedOrNonChildHopIsDroppedL0) {
  expectWrongHopsDropped<L0Bundle>(kL0A);
}

/// Both trees' root words of a full convergecast of this shape, seeded as
/// run `run`.
template <class Sketch>
std::vector<std::vector<std::uint64_t>> alone(typename Sketch::Shape shape,
                                              std::uint64_t run = 0) {
  Upcast<Sketch> up(shape, run);
  up.run();
  return {up.rootWords(0), up.rootWords(1)};
}

template <class Sketch>
void expectInterleavedShapesIndependent(typename Sketch::Shape a,
                                        typename Sketch::Shape b) {
  const auto wantA = alone<Sketch>(a);
  const auto wantB = alone<Sketch>(b);
  ASSERT_NE(wantA[0].size(), wantB[0].size());
  Upcast<Sketch> upA(a), upB(b);
  for (int s = 1; s <= kDepthBound + 1; ++s) {
    upA.step(s);
    upB.step(s);
  }
  EXPECT_EQ(upA.rootWords(0), wantA[0]);
  EXPECT_EQ(upB.rootWords(0), wantB[0]);
  EXPECT_EQ(upA.rootWords(1), wantA[1]);
  EXPECT_EQ(upB.rootWords(1), wantB[1]);
}

TEST(SketchConvergecast, InterleavedShapesOnOneThreadSparse) {
  expectInterleavedShapesIndependent<SparseRecovery>(kSparseA, kSparseB);
}

TEST(SketchConvergecast, InterleavedShapesOnOneThreadL0) {
  expectInterleavedShapesIndependent<L0Bundle>(kL0A, kL0B);
}

TEST(SketchConvergecast, TwoThreadsEachDriveAConvergecast) {
  // The threads run the same sketch types in different shapes: a scratch
  // shared across threads would be rebuilt under the other's feet (and
  // race under TSan); a thread-local one keeps each run intact.  They also
  // run L0 bundles of one shape under different seeds, so each thread's
  // scratch is reseeded, not rebuilt: the bundle's cached squaring chains
  // must stay with their thread and their seed.
  const auto wantSparseA = alone<SparseRecovery>(kSparseA);
  const auto wantSparseB = alone<SparseRecovery>(kSparseB);
  const auto wantL0A = alone<L0Bundle>(kL0A);
  const auto wantL0B = alone<L0Bundle>(kL0B);
  std::vector<std::vector<std::vector<std::uint64_t>>> wantRun;
  for (std::uint64_t run = 1; run <= 4; ++run)
    wantRun.push_back(alone<L0Bundle>(kL0B, run));
  const auto runs = [&](std::uint64_t first) {
    bool ok = true;
    for (std::uint64_t run = first; run <= 4; run += 2)
      ok = ok && alone<L0Bundle>(kL0B, run) == wantRun[run - 1];
    return ok;
  };
  bool okA = true, okB = true;
  std::thread ta([&] {
    for (int rep = 0; rep < 10; ++rep)
      okA = okA && alone<SparseRecovery>(kSparseA) == wantSparseA &&
            alone<L0Bundle>(kL0A) == wantL0A && runs(1);
  });
  std::thread tb([&] {
    for (int rep = 0; rep < 10; ++rep)
      okB = okB && alone<SparseRecovery>(kSparseB) == wantSparseB &&
            alone<L0Bundle>(kL0B) == wantL0B && runs(2);
  });
  ta.join();
  tb.join();
  EXPECT_TRUE(okA);
  EXPECT_TRUE(okB);
}

// --- MismatchCorrection ------------------------------------------------------

TEST(MismatchCorrection, StepsAreTheSketchBlockPlusOneDownWavePerHop) {
  for (const auto& [k, depthBound, dmCap] :
       std::vector<std::tuple<int, int, int>>{
           {2, 3, 1}, {12, 1, 10}, {16, 4, 14}, {30, 7, 8}, {5, 2, 0}}) {
    const std::int64_t chunks = DmCodec(k, dmCap).chunks();
    const std::int64_t sketch = 2 * depthBound + 1;
    EXPECT_EQ(correctionSketchSteps(depthBound), sketch);
    EXPECT_EQ(correctionSteps(k, depthBound, dmCap, ShareBundle::OnePerHop),
              sketch + chunks / 1 * (depthBound + 1))
        << k << " " << depthBound << " " << dmCap;
    EXPECT_EQ(correctionSteps(k, depthBound, dmCap, ShareBundle::AllChunks),
              sketch + chunks / chunks * (depthBound + 1))
        << k << " " << depthBound << " " << dmCap;
  }
  // Past INT_MAX at the codec's cap: 4 * 65535 + 1 one-symbol chunks of
  // 20001 steps each.
  EXPECT_EQ(correctionSteps(2, 20000, kMaxDmKeys, ShareBundle::OnePerHop),
            std::int64_t{40001} + std::int64_t{262141} * 20001);
}

/// Runs one MismatchCorrection block over every node of the fault-free
/// packing.  Every node streams (sent, +1) and (estimate, -1) for each
/// neighbor, and node `receiver` holds a wrong estimate of `sender`'s
/// message.  Returns the patches every node saw, as (node, arc index, key).
std::vector<std::tuple<NodeId, int, std::uint64_t>> runPlantedBlock(
    ChildRule rule, ShareBundle bundle, NodeId sender, NodeId receiver) {
  const Graph& g = graphOf();
  const PackingKnowledge& pk = packing();
  const SlotSchedule slots{pk.eta, 3};
  constexpr int kDmCap = 4;
  const auto payload = [](NodeId from, NodeId to) {
    return static_cast<std::uint64_t>(100 + 10 * from + to);
  };
  const auto codec = codecOf(kDmCap);
  std::vector<MismatchCorrection<SparseRecovery>> mc;
  std::vector<ArcVotes> votes;
  std::vector<sim::NeighborSlots> out, in;
  for (NodeId v = 0; v < kN; ++v) {
    mc.emplace_back(pk, slots, SparseRecovery::Shape{8, 5}, codec, bundle,
                    rule);
    votes.emplace_back(pk.view(v).degree(), slots);
    out.emplace_back(g, v);
    in.emplace_back(g, v);
    util::Rng rng(0xb10c + static_cast<std::uint64_t>(v));
    mc.back().start(v == pk.root, rng);
    for (const auto& nb : g.neighbors(v)) {
      const std::uint64_t est =
          payload(nb.node, v) + (v == receiver && nb.node == sender ? 1 : 0);
      mc.back().entries().push_back(
          {encodeKey(v, nb.node, 0, payload(v, nb.node)), +1});
      mc.back().entries().push_back({encodeKey(nb.node, v, 0, est), -1});
    }
  }
  const int rounds = slots.blockRounds(static_cast<int>(
      correctionSteps(pk.k, pk.depthBound, kDmCap, bundle)));
  int recoveries = 0;
  std::vector<std::tuple<NodeId, int, std::uint64_t>> patches;
  for (int r = 0; r < rounds; ++r) {
    for (NodeId v = 0; v < kN; ++v) {
      auto& o = out[static_cast<std::size_t>(v)];
      o.begin();
      mc[static_cast<std::size_t>(v)].send(
          pk.view(v), r, v == pk.root, o,
          [&](const MismatchCorrection<SparseRecovery>& root) {
            ++recoveries;
            return recoverMajority(root);
          });
    }
    for (NodeId v = 0; v < kN; ++v) {
      auto& i = in[static_cast<std::size_t>(v)];
      const auto& nbs = g.neighbors(v);
      for (std::size_t j = 0; j < nbs.size(); ++j)
        sim::assignMsg(i.slot(j),
                       out[static_cast<std::size_t>(nbs[j].node)].from(v));
      const bool last = mc[static_cast<std::size_t>(v)].receive(
          pk.view(v), r, i, votes[static_cast<std::size_t>(v)], v,
          v == pk.root, [&](int idx, const DecodedKey& dec) {
            patches.emplace_back(
                v, idx,
                encodeKey(dec.sender, dec.receiver, dec.chunk, dec.payload));
          });
      EXPECT_EQ(last, r == rounds - 1) << "node " << v << " round " << r;
    }
  }
  EXPECT_EQ(recoveries, 1);
  return patches;
}

TEST(MismatchCorrection, PlantedMismatchPatchesItsReceiverOnly) {
  // Node 4's estimate of node 3's message is off by one: the DM holds
  // node 3's true send, and only node 4 patches, on its arc to node 3.
  // Node 4 is a leaf of tree 0 and two levels deep in tree 1.
  const NodeId sender = 3, receiver = 4;
  const std::uint64_t want = encodeKey(sender, receiver, 0, 100 + 30 + 4);
  for (const ChildRule rule : {ChildRule::AsListed, ChildRule::ParentExcluded})
    for (const ShareBundle bundle :
         {ShareBundle::OnePerHop, ShareBundle::AllChunks}) {
      const auto patches = runPlantedBlock(rule, bundle, sender, receiver);
      EXPECT_EQ(patches,
                (std::vector<std::tuple<NodeId, int, std::uint64_t>>{
                    {receiver, packing().view(receiver).arcIndexOf(sender),
                     want}}))
          << static_cast<int>(rule) << " " << static_cast<int>(bundle);
    }
}

TEST(SharedDmCodec, EveryNodeOnAnyThreadGetsTheOneCodec) {
  // A compiled algorithm's nodes hold one codec, built at the first get(),
  // whichever thread builds them.
  SharedDmCodec shared(packing().k, 4);
  const DmCodec* seen[2] = {nullptr, nullptr};
  std::thread a([&] { seen[0] = shared.get().get(); });
  std::thread b([&] { seen[1] = shared.get().get(); });
  a.join();
  b.join();
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(shared.get().get(), seen[0]);
  EXPECT_EQ(seen[0]->k(), packing().k);
  EXPECT_EQ(seen[0]->dmCap(), 4);
}

}  // namespace
}  // namespace mobile::compile

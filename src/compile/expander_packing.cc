#include "compile/expander_packing.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>
#include <set>

#include "graph/tree_packing.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

class PackingNode final : public NodeState {
 public:
  PackingNode(NodeId self, const Graph& g, util::Rng rng,
              ExpanderPackingOptions opts,
              std::shared_ptr<ExpanderPackingResult> result)
      : self_(self), g_(g), rng_(std::move(rng)), opts_(opts),
        result_(std::move(result)) {
    bestId_.assign(static_cast<std::size_t>(opts_.k),
                   static_cast<std::uint64_t>(self_));
    parent_.assign(static_cast<std::size_t>(opts_.k), -1);
    depthGuess_.assign(static_cast<std::size_t>(opts_.k),
                       self_isMax() ? 0 : -1);
    children_.assign(static_cast<std::size_t>(opts_.k), {});
  }

  // Logical rounds: 1 = coloring, 2..z+1 = BFS, z+2 = orientation.
  // Each logical round occupies `pad` physical rounds; majority decode.
  void send(int round, Outbox& out) override {
    const int pad = opts_.padRepetition;
    const int logical = (round - 1) / pad + 1;
    if (logical == 1) {
      // Color proposal: higher-id endpoint samples once and repeats it.
      for (const auto& nb : g_.neighbors(self_)) {
        if (self_ > nb.node) {
          auto& c = myColor_[nb.node];
          if (!colorChosen_.count(nb.node)) {
            c = static_cast<int>(
                rng_.below(static_cast<std::uint64_t>(opts_.k)));
            colorChosen_.insert(nb.node);
          }
          out.to(nb.node, Msg::of(static_cast<std::uint64_t>(c)));
        }
      }
      return;
    }
    if (logical <= 1 + opts_.bfsRounds) {
      // BFS wave: on each edge, send the best id of that edge's color.
      for (const auto& nb : g_.neighbors(self_)) {
        const auto it = edgeColor_.find(nb.node);
        if (it == edgeColor_.end()) continue;
        out.to(nb.node,
               Msg::of(bestId_[static_cast<std::size_t>(it->second)]));
      }
      return;
    }
    if (logical == 2 + opts_.bfsRounds) {
      // Orientation requests to parents (one per color; edges distinct).
      for (int c = 0; c < opts_.k; ++c) {
        const NodeId p = parent_[static_cast<std::size_t>(c)];
        if (p >= 0)
          out.to(p, Msg::of(static_cast<std::uint64_t>(c)));
      }
      return;
    }
  }

  void receive(int round, const Inbox& in) override {
    const int pad = opts_.padRepetition;
    const int logical = (round - 1) / pad + 1;
    const int rep = (round - 1) % pad;
    for (const auto& nb : g_.neighbors(self_)) {
      VoteSlot& votes = votes_[nb.node];
      if (rep == 0) votes.reset();
      votes.add(in.from(nb.node));
    }
    if (rep != pad - 1) return;
    if (logical == 1) {
      for (const auto& nb : g_.neighbors(self_)) {
        if (self_ > nb.node) {
          edgeColor_[nb.node] = myColor_[nb.node];
        } else {
          const Msg& m = votes_[nb.node].winner();
          if (m.present)
            edgeColor_[nb.node] =
                static_cast<int>(m.at(0) % static_cast<std::uint64_t>(opts_.k));
        }
      }
    } else if (logical <= 1 + opts_.bfsRounds) {
      const int bfsRound = logical - 1;
      for (const auto& nb : g_.neighbors(self_)) {
        const auto it = edgeColor_.find(nb.node);
        if (it == edgeColor_.end()) continue;
        const Msg& m = votes_[nb.node].winner();
        if (!m.present) continue;
        const std::size_t c = static_cast<std::size_t>(it->second);
        if (m.at(0) > bestId_[c]) {
          bestId_[c] = m.at(0);
          parent_[c] = nb.node;
          depthGuess_[c] = bfsRound;
        }
      }
    } else if (logical == 2 + opts_.bfsRounds) {
      for (const auto& nb : g_.neighbors(self_)) {
        const Msg& m = votes_[nb.node].winner();
        if (!m.present) continue;
        const int c = static_cast<int>(m.at(0) %
                                       static_cast<std::uint64_t>(opts_.k));
        children_[static_cast<std::size_t>(c)].push_back(nb.node);
      }
      publish();
      done_ = true;
    }
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  [[nodiscard]] bool self_isMax() const { return self_ == g_.nodeCount() - 1; }

  void publish() {
    StagedNodeView& view = result_->staged[static_cast<std::size_t>(self_)];
    view.parent = parent_;
    view.children = children_;
    view.depth.assign(static_cast<std::size_t>(opts_.k), -1);
    for (int c = 0; c < opts_.k; ++c) {
      if (self_isMax())
        view.depth[static_cast<std::size_t>(c)] = 0;
      else if (parent_[static_cast<std::size_t>(c)] >= 0)
        view.depth[static_cast<std::size_t>(c)] =
            depthGuess_[static_cast<std::size_t>(c)];
    }
    // The last publisher flattens every node's belief into the CSR form
    // (the fetch_add orders the staging writes before the freeze).
    if (result_->published.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        g_.nodeCount()) {
      freezePackingViews(*result_->knowledge, g_, std::move(result_->staged));
    }
  }

  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  ExpanderPackingOptions opts_;
  std::shared_ptr<ExpanderPackingResult> result_;
  std::map<NodeId, int> myColor_;
  std::set<NodeId> colorChosen_;
  std::map<NodeId, int> edgeColor_;
  std::vector<std::uint64_t> bestId_;
  std::vector<NodeId> parent_;
  std::vector<int> depthGuess_;
  std::vector<std::vector<NodeId>> children_;
  std::map<NodeId, VoteSlot> votes_;  // this logical round's padded copies
  bool done_ = false;
};

}  // namespace

sim::Algorithm makeExpanderPackingProtocol(
    const graph::Graph& g, ExpanderPackingOptions opts,
    std::shared_ptr<ExpanderPackingResult> result) {
  assert(result);
  result->knowledge = std::make_shared<PackingKnowledge>();
  auto& pk = *result->knowledge;
  pk.root = g.nodeCount() - 1;
  pk.k = opts.k;
  pk.eta = 2;
  pk.depthBound = opts.bfsRounds;
  result->published.store(0, std::memory_order_relaxed);
  result->staged.assign(static_cast<std::size_t>(g.nodeCount()), {});
  for (auto& v : result->staged) {
    v.parent.assign(static_cast<std::size_t>(opts.k), -1);
    v.children.assign(static_cast<std::size_t>(opts.k), {});
    v.depth.assign(static_cast<std::size_t>(opts.k), -1);
  }

  sim::Algorithm a;
  a.rounds = (2 + opts.bfsRounds) * opts.padRepetition;
  a.congestion = a.rounds;
  a.makeNode = [&g, opts, result](NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<PackingNode>(v, g, std::move(rng), opts, result);
  };
  return a;
}

WeakPackingQuality assessWeakPacking(const graph::Graph& g,
                                     const PackingKnowledge& pk) {
  WeakPackingQuality q;
  q.k = pk.k;
  for (int t = 0; t < pk.k; ++t) {
    // Reconstruct tree t from per-node parent beliefs; check consistency:
    // every non-root node has a parent, parents form a tree rooted at
    // pk.root, child lists mirror parents, and depth <= depthBound.
    bool ok = true;
    std::vector<NodeId> parent(static_cast<std::size_t>(g.nodeCount()), -1);
    for (NodeId v = 0; v < g.nodeCount() && ok; ++v) {
      const NodeId p = pk.view(v).parent(t);
      if (v == pk.root) {
        if (p >= 0) ok = false;
        continue;
      }
      if (p < 0 || g.edgeBetween(v, p) < 0) {
        ok = false;
        continue;
      }
      parent[static_cast<std::size_t>(v)] = p;
      // Mirror check: p's children list must contain v.
      if (!pk.view(p).hasChild(t, v)) ok = false;
    }
    if (!ok) continue;
    const graph::RootedTree rt =
        graph::RootedTree::fromParents(pk.root, parent, g);
    if (!rt.spanning(g.nodeCount())) continue;
    if (rt.height() > pk.depthBound) continue;
    ++q.goodTrees;
    q.maxDepthSeen = std::max(q.maxDepthSeen, rt.height());
  }
  return q;
}

std::shared_ptr<PackingKnowledge> cliquePackingKnowledge(
    const graph::Graph& g) {
  const graph::TreePacking stars = graph::cliqueStarPacking(g);
  return distributePacking(g, stars, /*depthBound=*/2);
}

}  // namespace mobile::compile

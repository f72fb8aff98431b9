#include "compile/rs_scheduler.h"

#include "compile/tree_stages.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::NodeState;
using sim::Outbox;

namespace {

class SchedNode final : public NodeState {
 public:
  SchedNode(NodeId self, const Graph& g, util::Rng rng,
            std::shared_ptr<const PackingKnowledge> pk, int rho,
            std::shared_ptr<ScheduledBroadcastShared> shared)
      : self_(self),
        g_(g),
        pk_(std::move(pk)),
        view_(pk_->view(self)),
        slots_{pk_->eta, rho},
        shared_(std::move(shared)),
        votes_(view_.degree(), slots_),
        flood_(ChildRule::ParentExcluded) {
    reinit(std::move(rng));
  }

  /// Network::reset() in-place re-initializer: exactly the constructor's
  /// mutable state, reusing every allocation (vote slot capacities
  /// survive; each slot is fully rewritten before its next majority read).
  void reinit(util::Rng rng) {
    done_ = false;
    flood_.start(pk_->k);
    if (self_ == pk_->root) {
      shared_->truth.assign(static_cast<std::size_t>(pk_->k), 0);
      for (int t = 0; t < pk_->k; ++t) {
        const std::uint64_t value = rng.next() | 1u;
        flood_.seed(t, {value});
        shared_->truth[static_cast<std::size_t>(t)] = value;
      }
    }
  }

  void send(int round, Outbox& out) override {
    const SlotPos h = slots_.at(round - 1);
    if (h.step > pk_->depthBound) return;
    sendScheduled(view_, h.slot, out, [&](int tree, NodeId to) {
      return flood_.send(view_, tree, to, h.step);
    });
  }

  void receive(int round, const Inbox& in) override {
    const SlotPos h = slots_.at(round - 1);
    if (h.step > pk_->depthBound) return;
    votes_.receive(view_, h, in, flood_, h.step);
    if (round == slots_.blockRounds(pk_->depthBound)) publish();
  }

  void publish() {
    auto& row = shared_->received;
    if (row.size() < static_cast<std::size_t>(g_.nodeCount()))
      row.resize(static_cast<std::size_t>(g_.nodeCount()));
    row[static_cast<std::size_t>(self_)].assign(flood_.words().begin(),
                                                flood_.words().end());
    done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  NodeId self_;
  const Graph& g_;
  std::shared_ptr<const PackingKnowledge> pk_;
  NodeTreeView view_;
  SlotSchedule slots_;
  std::shared_ptr<ScheduledBroadcastShared> shared_;
  ArcVotes votes_;
  TreeFlood flood_;  // the root's value per tree
  bool done_ = false;
};

}  // namespace

sim::Algorithm makeScheduledTreeBroadcast(
    const graph::Graph& g, std::shared_ptr<const PackingKnowledge> pk,
    int rho, std::shared_ptr<ScheduledBroadcastShared> shared) {
  const SlotSchedule slots{pk->eta, rho};
  sim::Algorithm a;
  a.rounds = slots.blockRounds(pk->depthBound);
  a.congestion = a.rounds;
  a.makeNode = [&g, pk, rho, shared](NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<SchedNode>(v, g, std::move(rng), pk, rho, shared);
  };
  a.reinitNode = [](sim::NodeState& node, NodeId, const Graph&,
                    util::Rng rng) {
    auto* sched = dynamic_cast<SchedNode*>(&node);
    if (sched == nullptr) return false;
    sched->reinit(std::move(rng));
    return true;
  };
  return a;
}

int countCorrectTrees(const ScheduledBroadcastShared& shared,
                      const PackingKnowledge& pk) {
  int correct = 0;
  for (int t = 0; t < pk.k; ++t) {
    bool ok = true;
    for (const auto& nodeRow : shared.received) {
      if (nodeRow.size() != static_cast<std::size_t>(pk.k) ||
          nodeRow[static_cast<std::size_t>(t)] !=
              shared.truth[static_cast<std::size_t>(t)]) {
        ok = false;
        break;
      }
    }
    if (ok) ++correct;
  }
  return correct;
}

}  // namespace mobile::compile

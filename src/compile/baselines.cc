#include "compile/baselines.h"

#include <vector>

#include "compile/common.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

class NaiveNode final : public NodeState {
 public:
  NaiveNode(NodeId self, const Graph& g, std::unique_ptr<NodeState> inner,
            int innerRounds, int f)
      : self_(self),
        g_(g),
        inner_(std::move(inner)),
        innerRounds_(innerRounds),
        rep_(2 * f + 1),
        slots_(g, self) {
    // One vote slot per neighbor, in adjacency order, rewritten in place
    // every inner round (capacity kept across reset()).
    votes_.resize(g.degree(self));
  }

  void send(int round, Outbox& out) override {
    const int g = round - 1;
    const int simRound = g / rep_ + 1;
    if (simRound > innerRounds_) return;
    const int rep = g % rep_;
    if (rep == 0) {
      // The reused member slots *are* the per-sim-round send cache: they
      // hold the inner round's messages across all 2f+1 repetitions.
      slots_.begin();
      inner_->send(simRound, slots_);
    }
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i)
      if (slots_.slot(i).present) out.to(nbs[i].node, slots_.slot(i));
  }

  void receive(int round, const Inbox& in) override {
    const int g = round - 1;
    const int simRound = g / rep_ + 1;
    if (simRound > innerRounds_) {
      done_ = true;
      return;
    }
    const int rep = g % rep_;
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      if (rep == 0) votes_[i].reset();
      votes_[i].add(in.from(nbs[i].node));
    }
    if (rep != rep_ - 1) return;
    // The last repetition's send has read the capture, so the same slots
    // redeliver the majority copies (the first value to reach the top
    // count wins -- the tie-break the negative-control experiments pin
    // down, and the decode rule the byzantine/rewind compilers share).
    slots_.begin();
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const Msg& maj = votes_[i].winner();
      if (maj.present) slots_.slot(i) = maj;
    }
    inner_->receive(simRound, slots_);
    if (simRound >= innerRounds_) done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

  /// Network::reset() in-place re-init: re-initializes (or rebuilds) the
  /// inner node and rewinds the compiler state; neighbor and vote slots
  /// keep their capacity -- each is fully rewritten before its next read.
  void reinit(const sim::Algorithm& inner, NodeId v, const Graph& g,
              util::Rng rng) {
    util::Rng innerRng = rng.split(0x99);
    if (!(inner.reinitNode && inner.reinitNode(*inner_, v, g, innerRng)))
      inner_ = inner.makeNode(v, g, std::move(innerRng));
    done_ = false;
  }

 private:
  NodeId self_;
  const Graph& g_;
  std::unique_ptr<NodeState> inner_;
  int innerRounds_;
  int rep_;
  sim::NeighborSlots slots_;     // inner sends, then its delivery
  std::vector<VoteSlot> votes_;  // [neighbor slot]
  bool done_ = false;
};

}  // namespace

sim::Algorithm compileNaiveRepetition(const graph::Graph& g,
                                      const sim::Algorithm& inner, int f) {
  sim::Algorithm out;
  out.rounds = inner.rounds * (2 * f + 1);
  out.congestion = 0;
  out.makeNode = [&g, inner, f](NodeId v, const Graph&, util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0x99));
    return std::make_unique<NaiveNode>(v, g, std::move(innerNode),
                                       inner.rounds, f);
  };
  out.reinitNode = [inner](sim::NodeState& node, NodeId v, const Graph& g2,
                           util::Rng rng) {
    auto* naive = dynamic_cast<NaiveNode*>(&node);
    if (naive == nullptr) return false;
    naive->reinit(inner, v, g2, std::move(rng));
    return true;
  };
  return out;
}

}  // namespace mobile::compile

#include "compile/cycle_cover_compiler.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

/// A forwarding duty: within the window of color `color`, when this node
/// holds a value for (edge, path, direction), it relays it to `next`.
struct Duty {
  graph::EdgeId edge;
  int path;
  int dir;  // 0: u->v along the path; 1: v->u along the reversed path
  NodeId prev;  // where copies come from (-1 at the origin)
  NodeId next;  // where copies go (-1 at the terminus)
  int color;
};

struct Routing {
  // Per node: duties, and a lookup (from, color) -> duty index active there.
  std::vector<std::vector<Duty>> duties;  // [node]
  int colorCount = 0;
  int window = 0;
};

/// Builds per-node routing tables from the cover (trusted preprocessing).
Routing buildRouting(const Graph& g, const graph::CycleCover& cc, int f) {
  Routing r;
  r.colorCount = cc.colorCount;
  r.window = 2 * f * cc.dilation + cc.dilation + 1;
  r.duties.resize(static_cast<std::size_t>(g.nodeCount()));
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const int color = cc.color[static_cast<std::size_t>(e)];
    const auto& paths = cc.pathsFor(e);
    for (int p = 0; p < static_cast<int>(paths.size()); ++p) {
      const auto& fwd = paths[static_cast<std::size_t>(p)];
      for (int dir = 0; dir < 2; ++dir) {
        std::vector<NodeId> seq = fwd;
        if (dir == 1) std::reverse(seq.begin(), seq.end());
        for (std::size_t pos = 0; pos < seq.size(); ++pos) {
          Duty d;
          d.edge = e;
          d.path = p;
          d.dir = dir;
          d.color = color;
          d.prev = pos > 0 ? seq[pos - 1] : -1;
          d.next = pos + 1 < seq.size() ? seq[pos + 1] : -1;
          r.duties[static_cast<std::size_t>(seq[pos])].push_back(d);
        }
      }
    }
  }
  return r;
}

class CycleNode final : public NodeState {
 public:
  CycleNode(NodeId self, const Graph& g, std::unique_ptr<NodeState> inner,
            int innerRounds, std::shared_ptr<const Routing> routing)
      : self_(self),
        g_(g),
        inner_(std::move(inner)),
        innerRounds_(innerRounds),
        routing_(std::move(routing)),
        innerSlots_(g, self),
        bundle_(g, self) {
    roundsPerSim_ = routing_->colorCount * routing_->window;
  }

  void send(int round, Outbox& out) override {
    const int g = round - 1;
    const int simRound = g / roundsPerSim_ + 1;
    if (simRound > innerRounds_) return;
    const int o = g % roundsPerSim_;
    if (o == 0) startSimRound(simRound);
    const int color = o / routing_->window;
    bundle_.begin();
    for (const Duty& d : routing_->duties[static_cast<std::size_t>(self_)]) {
      if (d.color != color || d.next < 0) continue;
      const auto it = holding_.find({d.edge, d.path, d.dir});
      if (it == holding_.end()) continue;
      bundle_.to(d.next, sim::resetScratch(scratch_).push(it->second));
    }
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i)
      if (bundle_.slot(i).present) out.to(nbs[i].node, bundle_.slot(i));
  }

  void receive(int round, const Inbox& in) override {
    const int g = round - 1;
    const int simRound = g / roundsPerSim_ + 1;
    if (simRound > innerRounds_) {
      done_ = true;
      return;
    }
    const int o = g % roundsPerSim_;
    const int color = o / routing_->window;
    for (const Duty& d : routing_->duties[static_cast<std::size_t>(self_)]) {
      if (d.color != color || d.prev < 0) continue;
      const MsgView m = in.from(d.prev);
      if (!m.present()) continue;
      const std::uint64_t v = m.at(0);
      holding_[{d.edge, d.path, d.dir}] = v;
      if (d.next < 0) {
        // Terminus: pool the copy for the majority vote.
        ++votes_[{d.edge, d.dir}][v];
      }
    }
    if (o == roundsPerSim_ - 1) deliver(simRound);
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  void startSimRound(int simRound) {
    holding_.clear();
    votes_.clear();
    innerSlots_.begin();
    inner_->send(simRound, innerSlots_);
    // Seed origin duties: for edge (u,v), dir 0 originates at u with
    // m(u,v), dir 1 at v with m(v,u).  Absent messages ride as a sentinel
    // so receivers can distinguish "no message" reliably.
    for (const Duty& d : routing_->duties[static_cast<std::size_t>(self_)]) {
      if (d.prev >= 0) continue;
      const graph::Edge& ed = g_.edge(d.edge);
      const NodeId target = (d.dir == 0) ? ed.v : ed.u;
      if ((d.dir == 0 && ed.u != self_) || (d.dir == 1 && ed.v != self_))
        continue;
      const MsgView m = innerSlots_.from(target);
      holding_[{d.edge, d.path, d.dir}] =
          m.present() ? ((m.atOr(0, 0) << 1) | 1u) : 0u;
    }
  }

  void deliver(int simRound) {
    // The member slots the sim round captured into redeliver the majority
    // values; after warm-up they are rewritten in place.
    innerSlots_.begin();
    for (const auto& [key, tally] : votes_) {
      const auto& [edge, dir] = key;
      const graph::Edge& ed = g_.edge(edge);
      const NodeId sender = (dir == 0) ? ed.u : ed.v;
      std::uint64_t bestValue = 0;
      long bestCount = -1;
      for (const auto& [value, count] : tally) {
        if (count > bestCount) {
          bestCount = count;
          bestValue = value;
        }
      }
      if (bestCount > 0 && (bestValue & 1u) != 0)
        innerSlots_.to(sender,
                       sim::resetScratch(scratch_).push(bestValue >> 1));
    }
    inner_->receive(simRound, innerSlots_);
    if (simRound >= innerRounds_) done_ = true;
  }

  NodeId self_;
  const Graph& g_;
  std::unique_ptr<NodeState> inner_;
  int innerRounds_;
  std::shared_ptr<const Routing> routing_;
  sim::NeighborSlots innerSlots_;  // inner sends, then its delivery
  sim::NeighborSlots bundle_;      // this round's relays, one per neighbor
  Msg scratch_;                    // reused single-word message
  int roundsPerSim_;
  std::map<std::tuple<graph::EdgeId, int, int>, std::uint64_t> holding_;
  std::map<std::pair<graph::EdgeId, int>, std::map<std::uint64_t, long>> votes_;
  bool done_ = false;
};

}  // namespace

sim::Algorithm compileCycleCover(const graph::Graph& g,
                                 const sim::Algorithm& inner, int f,
                                 CycleCoverStats* stats) {
  const graph::CycleCover cc = graph::buildCycleCover(g, 2 * f + 1);
  auto routing = std::make_shared<const Routing>(buildRouting(g, cc, f));
  if (stats != nullptr) {
    stats->colorCount = routing->colorCount;
    stats->window = routing->window;
    stats->roundsPerSimRound = routing->colorCount * routing->window;
    stats->totalRounds = inner.rounds * stats->roundsPerSimRound;
    stats->dilation = cc.dilation;
    stats->congestion = cc.congestion;
  }
  sim::Algorithm out;
  out.rounds = inner.rounds * routing->colorCount * routing->window;
  out.congestion = 0;
  out.makeNode = [&g, inner, routing](NodeId v, const Graph&, util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0xcc));
    return std::make_unique<CycleNode>(v, g, std::move(innerNode),
                                       inner.rounds, routing);
  };
  return out;
}

}  // namespace mobile::compile

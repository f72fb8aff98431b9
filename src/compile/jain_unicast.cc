#include "compile/jain_unicast.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "graph/connectivity.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

UnicastPlan planUnicast(const Graph& g, NodeId s, NodeId t, int k) {
  UnicastPlan plan;
  plan.s = s;
  plan.t = t;
  plan.paths = graph::edgeDisjointPaths(g, s, t, k);
  assert(static_cast<int>(plan.paths.size()) == k &&
         "graph lacks the required edge connectivity");
  for (const auto& p : plan.paths)
    plan.dilation = std::max(plan.dilation, static_cast<int>(p.size()) - 1);
  return plan;
}

int MulticastPlan::dilation() const {
  int d = 0;
  for (const auto& inst : instances) d = std::max(d, inst.dilation);
  return d;
}

int MulticastPlan::rounds(bool mobile) const {
  // Instance j: pads at round j (mobile), hops at rounds j+1 .. j+dilation.
  return instanceCount() + dilation() + (mobile ? 1 : 0);
}

namespace {

/// Per-arc forwarding duty: at `sendRound`, forward share (instance, path).
struct Duty {
  int instance;
  int path;
  NodeId to;
  std::size_t slot;  // adjacency position of `to` among self's neighbors
  int hop;           // 1-based hop index along the path
  int sendRound;
};

/// Wire word tag for a share: (instance << 20) | path.  Tags are public
/// routing metadata; secrecy lives entirely in the share value.
constexpr std::uint64_t kPadMarker = ~0ULL;

std::uint64_t shareTag(int instance, int path) {
  return (static_cast<std::uint64_t>(instance) << 20) |
         static_cast<std::uint64_t>(path);
}

class MulticastNode final : public NodeState {
 public:
  MulticastNode(NodeId self, const Graph& g, util::Rng rng,
                std::shared_ptr<const MulticastPlan> plan, bool mobile)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        plan_(std::move(plan)),
        mobile_(mobile),
        bundles_(g, self) {
    const int R = plan_->instanceCount();
    for (int j = 0; j < R; ++j) {
      const UnicastPlan& inst = plan_->instances[static_cast<std::size_t>(j)];
      for (int p = 0; p < inst.shareCount(); ++p) {
        const auto& path = inst.paths[static_cast<std::size_t>(p)];
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
          if (path[h] != self_) continue;
          const NodeId to = path[h + 1];
          const auto slot = static_cast<std::size_t>(g.arcFromTo(self_, to) -
                                                     g.firstOutArc(self_));
          duties_.push_back({j, p, to, slot, static_cast<int>(h) + 1,
                             /*sendRound=*/j + 1 + static_cast<int>(h) + 1});
          // sendRound: pads at round j+1 (1-based instance j), hop 1 at
          // round j+2 ... hop h at round j+1+h.
        }
      }
      if (inst.s == self_) {
        // Source: draw k XOR shares of the secret.
        std::vector<std::uint64_t> shares(
            static_cast<std::size_t>(inst.shareCount()));
        std::uint64_t acc = plan_->secrets[static_cast<std::size_t>(j)];
        for (std::size_t i = 1; i < shares.size(); ++i) {
          shares[i] = rng_.next();
          acc ^= shares[i];
        }
        if (!shares.empty()) shares[0] = acc;
        for (int p = 0; p < inst.shareCount(); ++p)
          haveShare_[{j, p}] = shares[static_cast<std::size_t>(p)];
      }
      if (inst.t == self_) expected_ += inst.shareCount();
    }
  }

  void send(int round, Outbox& out) override {
    bundles_.begin();
    const auto& nbs = g_.neighbors(self_);
    // Pad exchange for instance (round-1) (0-based j = round-1): every arc
    // carries one fresh pad word.
    if (mobile_ && round <= plan_->instanceCount()) {
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const std::uint64_t pad = rng_.next();
        padOut_[{nbs[i].node, round - 1}] = pad;
        bundles_.slot(i).push(kPadMarker).push(pad);
      }
    }
    for (const Duty& d : duties_) {
      if (d.sendRound != round) continue;
      const auto it = haveShare_.find({d.instance, d.path});
      if (it == haveShare_.end()) continue;  // upstream loss/corruption
      std::uint64_t cipher = it->second;
      if (mobile_) cipher ^= padOut_.at({d.to, d.instance});
      bundles_.slot(d.slot).push(shareTag(d.instance, d.path)).push(cipher);
    }
    for (std::size_t i = 0; i < nbs.size(); ++i)
      if (bundles_.slot(i).present) out.to(nbs[i].node, bundles_.slot(i));
  }

  void receive(int round, const Inbox& in) override {
    for (const auto& nb : g_.neighbors(self_)) {
      const MsgView m = in.from(nb.node);
      if (!m.present()) continue;
      for (std::size_t i = 0; i + 1 < m.size(); i += 2) {
        const std::uint64_t tag = m.at(i);
        const std::uint64_t value = m.at(i + 1);
        if (tag == kPadMarker) {
          padIn_[{nb.node, round - 1}] = value;
          continue;
        }
        const int j = static_cast<int>(tag >> 20);
        const int p = static_cast<int>(tag & 0xfffff);
        std::uint64_t plain = value;
        if (mobile_) {
          const auto padIt = padIn_.find({nb.node, j});
          if (padIt == padIn_.end()) continue;
          plain ^= padIt->second;
        }
        if (!haveShare_.count({j, p})) {
          haveShare_[{j, p}] = plain;
          const UnicastPlan& inst =
              plan_->instances[static_cast<std::size_t>(j)];
          if (inst.t == self_) {
            recon_[j] ^= plain;
            ++got_;
          }
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t output() const override {
    // Target nodes output the reconstruction of their first instance.
    for (int j = 0; j < plan_->instanceCount(); ++j) {
      if (plan_->instances[static_cast<std::size_t>(j)].t == self_) {
        const auto it = recon_.find(j);
        return it != recon_.end() ? it->second : 0;
      }
    }
    return 0;
  }

  /// Reconstruction of instance j at its target (test hook).
  [[nodiscard]] std::uint64_t reconstructed(int j) const {
    const auto it = recon_.find(j);
    return it != recon_.end() ? it->second : 0;
  }

 private:
  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  std::shared_ptr<const MulticastPlan> plan_;
  bool mobile_;
  sim::NeighborSlots bundles_;  // this round's words, one Msg per neighbor
  std::vector<Duty> duties_;
  std::map<std::pair<int, int>, std::uint64_t> haveShare_;  // (inst,path)
  std::map<std::pair<NodeId, int>, std::uint64_t> padOut_;  // (nbr,inst)
  std::map<std::pair<NodeId, int>, std::uint64_t> padIn_;
  std::map<int, std::uint64_t> recon_;
  int expected_ = 0;
  int got_ = 0;
};

sim::Algorithm makeMulticast(const Graph& g, MulticastPlan plan, bool mobile) {
  auto shared = std::make_shared<const MulticastPlan>(std::move(plan));
  sim::Algorithm a;
  a.rounds = shared->rounds(mobile) + 1;
  a.congestion = 2;  // one pad + one share word pair per arc per instance
  a.makeNode = [&g, shared, mobile](NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<MulticastNode>(v, g, std::move(rng), shared,
                                           mobile);
  };
  return a;
}

}  // namespace

sim::Algorithm makeStaticSecureMulticast(const Graph& g, MulticastPlan plan) {
  return makeMulticast(g, std::move(plan), /*mobile=*/false);
}

sim::Algorithm makeMobileSecureMulticast(const Graph& g, MulticastPlan plan) {
  return makeMulticast(g, std::move(plan), /*mobile=*/true);
}

sim::Algorithm makeMobileSecureUnicast(const Graph& g, UnicastPlan plan,
                                       std::uint64_t secret) {
  MulticastPlan mp;
  mp.instances.push_back(std::move(plan));
  mp.secrets.push_back(secret);
  return makeMobileSecureMulticast(g, std::move(mp));
}

}  // namespace mobile::compile

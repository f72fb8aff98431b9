#include "compile/static_to_mobile.h"

#include <algorithm>

#include "compile/keypool.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

class MobileSecureNode final : public NodeState {
 public:
  MobileSecureNode(NodeId self, const Graph& g, util::Rng rng,
                   std::unique_ptr<NodeState> inner, int r,
                   const KeyPool& pool)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        r_(r),
        ell_(pool.exchangeRounds()),
        pads_(g, self, pool),
        innerSlots_(g, self) {}

  void send(int round, Outbox& out) override {
    if (round <= ell_) {
      // Phase 1: fresh uniform words to every neighbor.
      pads_.send(rng_, out);
      return;
    }
    const int i = round - ell_;  // simulated round of A
    if (i > r_) return;
    if (i == 1) pads_.derive();
    // Capture A's round-i sends (reused member slots), mask with K_i,
    // transmit on every edge so traffic analysis learns nothing from
    // message presence.
    innerSlots_.begin();
    inner_->send(i, innerSlots_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const Msg& cm = innerSlots_.slot(j);
      const bool real = cm.present;
      const std::uint64_t payload = real ? cm.atOr(0, 0) : rng_.next();
      out.to(nbs[j].node,
             sim::resetScratch(wire_)
                 .push(payload ^ pads_.sendPad(j, i - 1, 0))
                 .push((real ? 1u : 0u) ^ pads_.sendPad(j, i - 1, 1)));
    }
  }

  void receive(int round, const Inbox& in) override {
    if (round <= ell_) {
      pads_.receive(in);
      return;
    }
    const int i = round - ell_;
    if (i > r_) return;
    // Redeliver through the member slots the send captured into: every
    // slot is marked absent first, so only this round's unmasked real
    // messages survive.
    innerSlots_.begin();
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const MsgView m = in.from(nbs[j].node);
      if (!m.present()) continue;
      const std::uint64_t flag = m.atOr(1, 0) ^ pads_.recvPad(j, i - 1, 1);
      if ((flag & 1u) != 0)
        innerSlots_.slot(j).push(m.at(0) ^ pads_.recvPad(j, i - 1, 0));
    }
    inner_->receive(i, innerSlots_);
  }

  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  std::unique_ptr<NodeState> inner_;
  int r_;
  int ell_;
  PadExchange pads_;               // K_i(u, v) is pad i - 1 of arc (u, v)
  sim::NeighborSlots innerSlots_;  // inner sends, then its delivery
  Msg wire_;                       // reused masked wire message
};

}  // namespace

sim::Algorithm compileStaticToMobile(const graph::Graph& g,
                                     const sim::Algorithm& inner, int t,
                                     StaticToMobileStats* stats, int staticF) {
  const int r = inner.rounds;
  if (stats != nullptr) {
    stats->exchangeRounds = r + t;
    stats->totalRounds = 2 * r + t;
    // Theorem 1.2: f' = floor(f (t+1) / (r+t)); the integrality argument
    // gives f' = f outright once t >= 2fr.
    const int byRatio =
        static_cast<int>((static_cast<long>(staticF) * (t + 1)) / (r + t));
    stats->mobileF = (t >= 2 * staticF * r) ? std::max(staticF, byRatio)
                                            : byRatio;
  }
  sim::Algorithm out;
  out.rounds = 2 * r + t;
  out.congestion = out.rounds;
  // One pool per compiled algorithm: every node shares its point tables.
  const KeyPool pool(r, t, kStaticToMobileWordsPerRound);
  out.makeNode = [&g, inner, r, pool](NodeId v, const Graph&,
                                      util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0x1217));
    return std::make_unique<MobileSecureNode>(v, g, rng.split(0x0522),
                                              std::move(innerNode), r, pool);
  };
  return out;
}

}  // namespace mobile::compile

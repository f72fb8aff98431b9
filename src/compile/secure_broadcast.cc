#include "compile/secure_broadcast.h"

#include <algorithm>
#include <cassert>

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

// The secret is dispersed word-at-a-time: each word runs one *chunk* =
// [pool exchange phase][tree dispersal phase].  Chunking keeps every
// Vandermonde extraction tiny (pool size eta * (1 + 2f) words) while the
// per-chunk security argument is exactly Lemma A.1's: at most f edges leak
// their chunk pads, exposing at most f * eta < k shares of that word.

BroadcastCore::BroadcastCore(NodeId self, const Graph& g, util::Rng rng,
                             std::shared_ptr<const PackingKnowledge> pk,
                             std::vector<std::uint64_t> secret,
                             const KeyPool& pool)
    : self_(self),
      g_(g),
      rng_(std::move(rng)),
      pk_(std::move(pk)),
      secret_(std::move(secret)),
      w_(static_cast<int>(secret_.size())),
      floodRounds_(pk_->depthBound * pk_->eta),
      pads_(g, self, pool) {
  assert(w_ >= 1);
  haveShare_.assign(static_cast<std::size_t>(pk_->k), 0);
  shares_.assign(static_cast<std::size_t>(pk_->k), {});
  result_.assign(static_cast<std::size_t>(w_), 0);
  if (self_ == pk_->root) {
    // Root: draw k-1 random share vectors; last closes the XOR.
    std::vector<std::uint64_t> acc = secret_;
    for (int t = 0; t < pk_->k; ++t) {
      std::vector<std::uint64_t> share(static_cast<std::size_t>(w_));
      if (t + 1 < pk_->k) {
        for (auto& x : share) x = rng_.next();
        for (int i = 0; i < w_; ++i)
          acc[static_cast<std::size_t>(i)] ^=
              share[static_cast<std::size_t>(i)];
      } else {
        share = acc;
      }
      shares_[static_cast<std::size_t>(t)] = std::move(share);
      haveShare_[static_cast<std::size_t>(t)] = 1;
    }
  } else {
    for (int t = 0; t < pk_->k; ++t)
      shares_[static_cast<std::size_t>(t)].assign(
          static_cast<std::size_t>(w_), 0);
  }
}

KeyPool BroadcastCore::keyPool(const PackingKnowledge& pk, int f) {
  return KeyPool(pk.eta, 2 * std::max(1, f) * pk.eta);
}

void BroadcastCore::send(int localRound, Outbox& out) {
  const int perChunk = exchangeRounds() + floodRounds_;
  const int chunk = (localRound - 1) / perChunk;
  const int cr = (localRound - 1) % perChunk + 1;
  if (chunk >= w_) return;
  if (cr == 1) pads_.start();  // fresh pools per chunk
  if (cr <= exchangeRounds()) {
    pads_.send(rng_, out);
    return;
  }
  if (cr == exchangeRounds() + 1) pads_.derive();
  const int fr = cr - exchangeRounds() - 1;  // 0-based flood round
  const int step = fr / pk_->eta + 1;        // 1-based depth step
  const int slot = fr % pk_->eta;
  const NodeTreeView view = pk_->view(self_);
  const auto& nbs = g_.neighbors(self_);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const int tree = view.treeAt(static_cast<int>(i), slot);
    if (tree < 0) continue;
    const int d = view.depth(tree);
    if (d != step - 1 || !view.hasChild(tree, nbs[i].node)) continue;
    if (view.parent(tree) == nbs[i].node) continue;
    if (!haveShare_[static_cast<std::size_t>(tree)]) continue;
    const std::uint64_t word =
        shares_[static_cast<std::size_t>(tree)]
               [static_cast<std::size_t>(chunk)];
    out.to(nbs[i].node, Msg::of(word ^ pads_.sendPad(i, slot, 0)));
  }
}

void BroadcastCore::receive(int localRound, const Inbox& in) {
  const int perChunk = exchangeRounds() + floodRounds_;
  const int chunk = (localRound - 1) / perChunk;
  const int cr = (localRound - 1) % perChunk + 1;
  if (chunk >= w_) return;
  if (cr <= exchangeRounds()) {
    pads_.receive(in);
    return;
  }
  const int fr = cr - exchangeRounds() - 1;
  const int step = fr / pk_->eta + 1;
  const int slot = fr % pk_->eta;
  const NodeTreeView view = pk_->view(self_);
  const auto& nbs = g_.neighbors(self_);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const int tree = view.treeAt(static_cast<int>(i), slot);
    if (tree < 0) continue;
    const int d = view.depth(tree);
    if (d != step || view.parent(tree) != nbs[i].node) continue;
    const MsgView m = in.from(nbs[i].node);
    if (!m.present()) continue;
    shares_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(chunk)] =
        m.at(0) ^ pads_.recvPad(i, slot, 0);
    haveShare_[static_cast<std::size_t>(tree)] = 1;
  }
  if (localRound == totalRounds()) {
    result_.assign(static_cast<std::size_t>(w_), 0);
    for (int t = 0; t < pk_->k; ++t) {
      for (int i = 0; i < w_; ++i)
        result_[static_cast<std::size_t>(i)] ^=
            shares_[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
    }
  }
}

namespace {

class BroadcastNode final : public NodeState {
 public:
  BroadcastNode(NodeId self, const Graph& g, util::Rng rng,
                std::shared_ptr<const PackingKnowledge> pk,
                std::vector<std::uint64_t> secret, const KeyPool& pool)
      : core_(self, g, std::move(rng), std::move(pk), std::move(secret),
              pool) {}

  void send(int round, Outbox& out) override {
    if (round <= core_.totalRounds()) core_.send(round, out);
  }
  void receive(int round, const Inbox& in) override {
    if (round <= core_.totalRounds()) core_.receive(round, in);
  }
  [[nodiscard]] std::uint64_t output() const override {
    return core_.result().empty() ? 0 : core_.result()[0];
  }

 private:
  BroadcastCore core_;
};

}  // namespace

sim::Algorithm makeMobileSecureBroadcast(
    const graph::Graph& g, std::shared_ptr<const PackingKnowledge> pk,
    std::vector<std::uint64_t> secret, int f) {
  const KeyPool pool = BroadcastCore::keyPool(*pk, f);
  BroadcastCore probe(pk->root, g, util::Rng(1), pk, secret, pool);
  sim::Algorithm a;
  a.rounds = probe.totalRounds();
  a.congestion = a.rounds;
  a.makeNode = [&g, pk, secret, pool](NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<BroadcastNode>(v, g, std::move(rng), pk, secret,
                                           pool);
  };
  return a;
}

}  // namespace mobile::compile

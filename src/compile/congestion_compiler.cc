#include "compile/congestion_compiler.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "compile/secure_broadcast.h"
#include "hash/cwise.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

/// Round layout and key pools of one compiled algorithm; every node holds
/// a copy, so the pools' point tables are built once and shared.
struct Layout {
  int r;
  int t1;
  int poolRounds;         // r + t1
  int broadcastRounds;    // BroadcastCore::totalRounds()
  int seedWords;          // c-wise hash coefficients
  KeyPool pool;           // r pads per arc from r + t1 rounds
  KeyPool broadcastPool;  // the seed broadcast's, BroadcastCore::keyPool
  [[nodiscard]] int total() const {
    return poolRounds + broadcastRounds + r;
  }
};

class CongestionNode final : public NodeState {
 public:
  CongestionNode(NodeId self, const Graph& g, util::Rng rng,
                 std::unique_ptr<NodeState> inner,
                 std::shared_ptr<const PackingKnowledge> pk,
                 CongestionCompilerOptions opts, const Layout& layout)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        pk_(std::move(pk)),
        opts_(opts),
        layout_(layout),
        hashMask_((1ULL << opts.hashBits) - 1),
        pads_(g, self, layout.pool),
        innerSlots_(g, self) {
    // Root draws the global hash seed; all nodes instantiate a core with
    // the same width (non-roots pass zeros which are ignored).
    std::vector<std::uint64_t> seed(
        static_cast<std::size_t>(layout_.seedWords), 0);
    if (self_ == pk_->root)
      for (auto& w : seed) w = rng_.next();
    bcast_ = std::make_unique<BroadcastCore>(self_, g_, rng_.split(0xbc),
                                             pk_, std::move(seed),
                                             layout_.broadcastPool);
  }

  void send(int round, Outbox& out) override {
    if (round <= layout_.poolRounds) {
      pads_.send(rng_, out);
      return;
    }
    const int b = round - layout_.poolRounds;
    if (b <= layout_.broadcastRounds) {
      bcast_->send(b, out);
      return;
    }
    const int i = b - layout_.broadcastRounds;  // simulated round of A
    if (i > layout_.r) return;
    if (i == 1) finalizeKeys();
    innerSlots_.begin();
    inner_->send(i, innerSlots_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const Msg& cm = innerSlots_.slot(j);
      std::uint64_t wire;
      if (cm.present) {
        const std::uint64_t m = cm.atOr(0, 0);
        assert(m < (1ULL << opts_.payloadBits) &&
               "payload exceeds the declared domain");
        wire = (*hash_)(m) ^ (pads_.sendPad(j, i - 1, 0) & hashMask_);
      } else {
        wire = rng_.next() & hashMask_;
      }
      out.to(nbs[j].node, sim::resetScratch(wire_).push(wire));
    }
  }

  void receive(int round, const Inbox& in) override {
    if (round <= layout_.poolRounds) {
      pads_.receive(in);
      return;
    }
    const int b = round - layout_.poolRounds;
    if (b <= layout_.broadcastRounds) {
      bcast_->receive(b, in);
      return;
    }
    const int i = b - layout_.broadcastRounds;
    if (i > layout_.r) return;
    innerSlots_.begin();
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const MsgView m = in.from(nbs[j].node);
      if (!m.present()) continue;
      const std::uint64_t image =
          m.at(0) ^ (pads_.recvPad(j, i - 1, 0) & hashMask_);
      // The paper's decoding loop: scan the message domain for a preimage.
      if (const auto msg = preimage(image)) innerSlots_.slot(j).push(*msg);
    }
    inner_->receive(i, innerSlots_);
    if (i >= layout_.r) done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  void finalizeKeys() {
    pads_.derive();
    // Install h* from the broadcast seed and precompute the decoding table
    // (one scan of the domain, reused every round), sorted by image and
    // then by message.
    hash_ = std::make_unique<hash::CwiseHash>(bcast_->result(),
                                              opts_.hashBits);
    preimage_.clear();
    preimage_.reserve(std::size_t{1} << opts_.payloadBits);
    for (std::uint64_t m = 0; m < (1ULL << opts_.payloadBits); ++m)
      preimage_.emplace_back((*hash_)(m), m);
    std::sort(preimage_.begin(), preimage_.end());
  }

  /// The message hashing to `image`; on a collision the largest one.
  [[nodiscard]] std::optional<std::uint64_t> preimage(
      std::uint64_t image) const {
    const auto past = std::upper_bound(
        preimage_.begin(), preimage_.end(), image,
        [](std::uint64_t x, const auto& entry) { return x < entry.first; });
    if (past == preimage_.begin() || std::prev(past)->first != image)
      return std::nullopt;
    return std::prev(past)->second;
  }

  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  std::unique_ptr<NodeState> inner_;
  std::shared_ptr<const PackingKnowledge> pk_;
  CongestionCompilerOptions opts_;
  Layout layout_;
  std::uint64_t hashMask_;         // the hash image domain [0, 2^hashBits)
  PadExchange pads_;               // K_i(u, v) is pad i - 1 of arc (u, v)
  sim::NeighborSlots innerSlots_;  // inner sends, then its delivery
  Msg wire_;                       // reused wire message
  std::unique_ptr<BroadcastCore> bcast_;
  std::unique_ptr<hash::CwiseHash> hash_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> preimage_;  // (h*, m)
  bool done_ = false;
};

}  // namespace

sim::Algorithm compileCongestionSensitive(
    const graph::Graph& g, const sim::Algorithm& inner,
    std::shared_ptr<const PackingKnowledge> pk, int f,
    CongestionCompilerOptions opts, CongestionCompilerStats* stats) {
  const int r = inner.rounds;
  const int t1 = opts.poolThreshold > 0 ? opts.poolThreshold : 3 * r;
  const int seedWords = std::max(2, 4 * f * std::max(1, inner.congestion));
  KeyPool broadcastPool = BroadcastCore::keyPool(*pk, f);
  const BroadcastCore probe(
      pk->root, g, util::Rng(1), pk,
      std::vector<std::uint64_t>(static_cast<std::size_t>(seedWords), 0),
      broadcastPool);
  const Layout layout{.r = r,
                      .t1 = t1,
                      .poolRounds = r + t1,
                      .broadcastRounds = probe.totalRounds(),
                      .seedWords = seedWords,
                      .pool = KeyPool(r, t1),
                      .broadcastPool = std::move(broadcastPool)};
  if (stats != nullptr) {
    stats->poolRounds = layout.poolRounds;
    stats->broadcastRounds = layout.broadcastRounds;
    stats->simulationRounds = layout.r;
    stats->totalRounds = layout.total();
    stats->hashIndependence = layout.seedWords;
  }
  sim::Algorithm out;
  out.rounds = layout.total();
  out.congestion = out.rounds;
  out.makeNode = [&g, inner, pk, opts, layout](NodeId v, const Graph&,
                                               util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0x77));
    return std::make_unique<CongestionNode>(v, g, rng.split(0x88),
                                            std::move(innerNode), pk, opts,
                                            layout);
  };
  return out;
}

}  // namespace mobile::compile

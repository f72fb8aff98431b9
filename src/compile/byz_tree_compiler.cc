#include "compile/byz_tree_compiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <variant>

#include "compile/tree_stages.h"
#include "util/rng.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

constexpr std::uint64_t kAbsentChunk = 1;  // chunk=1 encodes "no message"

}  // namespace

ByzSchedule ByzSchedule::compute(const PackingKnowledge& pk, int innerRounds,
                                 int f, const ByzOptions& opts) {
  ByzSchedule s;
  const int fEff = std::max(1, f);
  if (opts.correction == CorrectionMode::SparseOneShot) {
    s.z = 1;  // one-shot recovery (Section 1.2.2)
  } else {
    s.z = static_cast<int>(std::ceil(std::log2(2.0 * fEff))) + 2;
  }
  const int dmCap = opts.dmCap > 0 ? opts.dmCap : 2 * fEff + 8;
  const DmCodec codec(pk.k, dmCap, kCPP);
  s.chunks = codec.chunks();
  s.sketchSteps = 2 * pk.depthBound + 1;
  s.eccSteps = s.chunks / s.sharesPerHop * (pk.depthBound + 1);
  const SlotSchedule slots{pk.eta, kByzRho};
  s.roundsPerIteration = slots.blockRounds(s.sketchSteps + s.eccSteps);
  s.roundsPerSimRound = 1 + s.z * s.roundsPerIteration;
  s.totalRounds = std::int64_t{innerRounds} * s.roundsPerSimRound;
  return s;
}

namespace {

struct Pos {
  int simRound;   // 1-based inner round being simulated
  bool exchange;
  int j;          // iteration, 0-based
  bool inSketch;  // sketch block vs ECC block
  SlotPos hop;    // step (1-based within the block), rep, slot
};

class ByzNode final : public NodeState {
 public:
  ByzNode(NodeId self, const Graph& g, util::Rng rng,
          std::unique_ptr<NodeState> inner, int innerRounds,
          std::shared_ptr<const PackingKnowledge> pk, int f, ByzOptions opts,
          ByzSchedule sched, std::shared_ptr<ByzShared> shared)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        innerRounds_(innerRounds),
        pk_(std::move(pk)),
        view_(pk_->view(self)),
        f_(std::max(1, f)),
        mode_(opts.correction),
        sched_(sched),
        slots_{pk_->eta, kByzRho},
        shared_(std::move(shared)),
        isRoot_(self == pk_->root),
        innerSlots_(g, self),
        votes_(view_.degree(), slots_),
        seeds_(ChildRule::AsListed),
        up_(makeUpcast(opts.correction, f_, pk_->depthBound)),
        down_(pk_->k, opts.dmCap > 0 ? opts.dmCap : 2 * f_ + 8, kCPP,
              sched.sharesPerHop, pk_->depthBound, ChildRule::AsListed) {
    // Exchange-step key tables are adjacency-indexed and fully rewritten
    // by every exchange, so the shape is fixed up front.
    sentKey_.assign(g_.degree(self_), 0);
    estKey_.assign(g_.degree(self_), 0);
  }

  void send(int round, Outbox& out) override {
    const Pos p = position(round);
    if (p.simRound > innerRounds_) return;
    if (p.exchange) {
      sendExchange(p, out);
      return;
    }
    const bool blockStart =
        p.hop.step == 1 && p.hop.rep == 0 && p.hop.slot == 0;
    if (blockStart && p.inSketch) startIteration(p);
    if (blockStart && !p.inSketch && isRoot_) computeDm(p.j);
    const int D = pk_->depthBound;
    sendScheduled(view_, p.hop.slot, out,
                  [&](int tree, NodeId to) -> const Msg* {
                    if (!p.inSketch)
                      return down_.send(view_, tree, to, p.hop.step);
                    if (p.hop.step <= D)
                      return seeds_.send(view_, tree, to, p.hop.step);
                    return std::visit(
                        [&](auto& up) {
                          return up.send(view_, tree, to, p.hop.step - D,
                                         seeds_.word(tree), entries_);
                        },
                        up_);
                  });
  }

  void receive(int round, const Inbox& in) override {
    const Pos p = position(round);
    if (p.simRound > innerRounds_) {
      done_ = true;
      return;
    }
    if (p.exchange) {
      receiveExchange(p, in);
      return;
    }
    const int D = pk_->depthBound;
    if (!p.inSketch)
      votes_.receive(view_, p.hop, in, down_, p.hop.step);
    else if (p.hop.step <= D)
      votes_.receive(view_, p.hop, in, seeds_, p.hop.step);
    else
      std::visit(
          [&](auto& up) {
            votes_.receive(view_, p.hop, in, up, p.hop.step - D);
          },
          up_);
    if (!p.inSketch && p.hop.step == sched_.eccSteps &&
        p.hop.rep == slots_.rho - 1 && p.hop.slot == pk_->eta - 1) {
      finishIteration(p);
      if (p.j == sched_.z - 1) deliverToInner(p);
    }
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  // --- round arithmetic ----------------------------------------------------

  [[nodiscard]] Pos position(int round) const {
    Pos p{};
    const int g = round - 1;
    p.simRound = g / sched_.roundsPerSimRound + 1;
    const int offset = g % sched_.roundsPerSimRound;
    p.exchange = (offset == 0);
    if (p.exchange) return p;
    const int q = offset - 1;
    p.j = q / sched_.roundsPerIteration;
    const int r = q % sched_.roundsPerIteration;
    const int sketchRounds = slots_.blockRounds(sched_.sketchSteps);
    p.inSketch = r < sketchRounds;
    p.hop = slots_.at(p.inSketch ? r : r - sketchRounds);
    return p;
  }

  [[nodiscard]] bool sparseMode() const {
    return mode_ == CorrectionMode::SparseOneShot;
  }

  /// The correction mode's up-wave stage: one sparse-recovery sketch or t
  /// l0-samplers per tree.
  using Upcast = std::variant<SparseConvergecast, L0Convergecast>;
  [[nodiscard]] static Upcast makeUpcast(CorrectionMode mode, int f,
                                         int depthBound) {
    if (mode == CorrectionMode::SparseOneShot)
      return Upcast(std::in_place_type<SparseConvergecast>,
                    sketch::SparseRecovery::Shape{
                        static_cast<std::size_t>(kSparseSlack * 4 * f),
                        static_cast<std::size_t>(kSparseRows)},
                    depthBound, ChildRule::AsListed);
    return Upcast(std::in_place_type<L0Convergecast>,
                  sketch::L0Bundle::Shape{
                      static_cast<std::size_t>(kTSketches), kSketchLevels},
                  depthBound, ChildRule::AsListed);
  }

  // --- exchange step -------------------------------------------------------

  void sendExchange(const Pos& p, Outbox& out) {
    // Reused member slots + adjacency-indexed key tables + one scratch
    // wire message: the exchange step allocates nothing in steady state.
    innerSlots_.begin();
    inner_->send(p.simRound, innerSlots_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const Msg& cm = innerSlots_.slot(i);
      const bool present = cm.present;
      const std::uint64_t payload = present ? (cm.atOr(0, 0) & kPayloadMask)
                                            : 0;
      const std::uint64_t key = encodeKey(
          self_, nbs[i].node,
          present ? 0u : static_cast<unsigned>(kAbsentChunk), payload);
      sentKey_[i] = key;
      if (shared_) shared_->sentTruth[{self_, nbs[i].node}] = key;
      out.to(nbs[i].node, sim::resetScratch(exchMsg_).push(payload).push(
                              present ? 1u : 0u));
    }
  }

  void receiveExchange(const Pos& p, const Inbox& in) {
    currentSimRound_ = p.simRound;
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const MsgView m = in.from(nbs[i].node);
      const bool present = m.present() && (m.atOr(1, 0) & 1u) != 0;
      const std::uint64_t payload =
          m.present() ? (m.atOr(0, 0) & kPayloadMask) : 0;
      estKey_[i] = encodeKey(
          nbs[i].node, self_,
          present ? 0u : static_cast<unsigned>(kAbsentChunk), payload);
    }
    if (shared_) recordMismatches(0);
  }

  void recordMismatches(int afterIteration) {
    // Instrumentation for Lemma 3.8: count this node's wrong estimates.
    auto& bj = shared_->bj;
    while (static_cast<int>(bj.size()) < currentSimRound_)
      bj.emplace_back(static_cast<std::size_t>(sched_.z + 1), 0);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const auto truth = shared_->sentTruth.find({nbs[i].node, self_});
      if (truth == shared_->sentTruth.end()) continue;
      if (estKey_[i] != truth->second)
        ++bj[static_cast<std::size_t>(currentSimRound_ - 1)]
            [static_cast<std::size_t>(afterIteration)];
    }
  }

  // --- iteration lifecycle ---------------------------------------------------

  void startIteration(const Pos& p) {
    currentSimRound_ = p.simRound;
    seeds_.start(pk_->k);
    std::visit([](auto& up) { up.start(); }, up_);
    down_.start();
    down_.forget();
    buildEntries();
    if (isRoot_) {
      // The root draws every tree's sketch seed and knows it immediately.
      for (int t = 0; t < pk_->k; ++t) seeds_.seed(t, {rng_.next()});
    }
  }

  /// Refills entries_ (clear + push, capacity kept) from the exchange key
  /// tables; both tables were fully rewritten by this sim round's exchange
  /// before any iteration starts.
  void buildEntries() {
    entries_.clear();
    const std::size_t deg = g_.degree(self_);
    for (std::size_t i = 0; i < deg; ++i) {
      entries_.push_back({sentKey_[i], +1});
      entries_.push_back({estKey_[i], -1});
    }
  }

  // --- root: dominating mismatches -------------------------------------------

  /// Root, at the start of the ECC block: recovers the DM keys and hands
  /// them to the share downcast.
  void computeDm(int j) {
    if (sparseMode())
      down_.encode(recoverMajority(std::get<SparseConvergecast>(up_), seeds_,
                                   pk_->k, entries_));
    else
      down_.encode(l0Dm(j));
  }

  /// Section 3.2: the observed mismatches with support >= Delta_j across
  /// all trees' merged l0-sketches.
  [[nodiscard]] std::vector<std::uint64_t> l0Dm(int j) {
    std::map<std::uint64_t, int> supp;
    std::map<std::uint64_t, bool> positive;
    const L0Convergecast& up = std::get<L0Convergecast>(up_);
    for (int t = 0; t < pk_->k; ++t) {
      const sketch::L0Bundle& merged = up.merged(t, seeds_.word(t), entries_);
      for (const auto& s : merged.samplers()) {
        const auto r = s.query();
        if (r.has_value()) {
          ++supp[r->key];
          if (r->frequency > 0) positive[r->key] = true;
        }
      }
    }
    // Threshold Delta_j (Eq. 8 with tuned constants; see kTheta).
    const double dj = kTheta * std::pow(2.0, j + 1) *
                      static_cast<double>(pk_->k) * kTSketches /
                      static_cast<double>(f_);
    const int delta = std::max(1, static_cast<int>(std::ceil(dj)));
    std::vector<std::uint64_t> dm;
    for (const auto& [key, s] : supp)
      if (s >= delta && positive.count(key)) dm.push_back(key);
    std::sort(dm.begin(), dm.end());
    return dm;
  }

  // --- end of iteration --------------------------------------------------------

  void finishIteration(const Pos& p) {
    // Patch estimates (Step 3 of the iteration).
    down_.finish(view_, self_, isRoot_, [&](int idx, const DecodedKey& dec) {
      if (dec.chunk > kAbsentChunk) return;
      estKey_[static_cast<std::size_t>(idx)] =
          encodeKey(dec.sender, self_, dec.chunk, dec.payload);
    });
    if (shared_) recordMismatches(p.j + 1);
  }

  void deliverToInner(const Pos& p) {
    // Redeliver through the member slots the exchange captured into:
    // begin() marks them all absent, so no stale message survives between
    // sim rounds and nothing is allocated after the first delivery.
    innerSlots_.begin();
    for (std::size_t i = 0; i < estKey_.size(); ++i) {
      const DecodedKey dec = decodeKey(estKey_[i]);
      if (dec.chunk == 0) innerSlots_.slot(i).push(dec.payload);
    }
    inner_->receive(p.simRound, innerSlots_);
    if (p.simRound >= innerRounds_) done_ = true;
  }

  // --- members ---------------------------------------------------------------

  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  std::unique_ptr<NodeState> inner_;
  int innerRounds_;
  std::shared_ptr<const PackingKnowledge> pk_;
  NodeTreeView view_;  // value proxy into pk_'s flat arrays
  int f_;
  CorrectionMode mode_;
  ByzSchedule sched_;
  SlotSchedule slots_;
  std::shared_ptr<ByzShared> shared_;
  bool isRoot_;
  bool done_ = false;
  int currentSimRound_ = 1;

  /// Exchange-step surfaces, adjacency-indexed and rewritten in place each
  /// sim round: the neighbor slots capture the inner algorithm's sends and
  /// later redeliver the corrected receipts, the key tables hold my sends /
  /// estimated receipts in key form, and exchMsg_ is the reused wire
  /// buffer.
  sim::NeighborSlots innerSlots_;
  Msg exchMsg_;
  std::vector<std::uint64_t> sentKey_;  // [nbIndex] my round-i sends
  std::vector<std::uint64_t> estKey_;   // [nbIndex] estimates of receipts
  StreamEntries entries_;

  // The tree stages of one iteration (docs/architecture.md section 7).
  ArcVotes votes_;
  TreeFlood seeds_;  // sketch seed R(T) per tree
  Upcast up_;
  ShareDowncast down_;
};

}  // namespace

sim::Algorithm compileByzantineTree(const graph::Graph& g,
                                    const sim::Algorithm& inner,
                                    std::shared_ptr<const PackingKnowledge> pk,
                                    int f, ByzOptions opts,
                                    std::shared_ptr<ByzShared> shared) {
  const ByzSchedule sched = ByzSchedule::compute(*pk, inner.rounds, f, opts);
  sim::Algorithm out;
  out.rounds = compiledRounds(sched.totalRounds);
  out.congestion = 0;
  out.makeNode = [&g, inner, pk, f, opts, sched, shared](
                     NodeId v, const Graph&, util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0xb12));
    return std::make_unique<ByzNode>(v, g, rng.split(0x3a7),
                                     std::move(innerNode), inner.rounds, pk, f,
                                     opts, sched, shared);
  };
  return out;
}

}  // namespace mobile::compile

#include "compile/byz_tree_compiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <type_traits>

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

int dmCapFor(const ByzOptions& opts, int fEff) {
  return opts.dmCap > 0 ? opts.dmCap : 2 * fEff + 8;
}

struct Pos {
  int simRound;  // 1-based inner round being simulated
  bool exchange;
  int j;         // iteration, 0-based
  int r;         // round within the iteration's correction block, 0-based
};

/// A node of the compiled algorithm; `Sketch` is the correction mode's
/// sketch: sketch::L0Bundle (L0Iterative) or sketch::SparseRecovery
/// (SparseOneShot).
template <class Sketch>
class ByzNode final : public NodeState {
  using Correction = MismatchCorrection<Sketch>;
  static constexpr bool kSparse =
      std::is_same_v<Sketch, sketch::SparseRecovery>;

 public:
  ByzNode(NodeId self, const Graph& g, util::Rng rng,
          std::unique_ptr<NodeState> inner, int innerRounds,
          std::shared_ptr<const PackingKnowledge> pk, int f,
          std::shared_ptr<const DmCodec> codec, ByzSchedule sched,
          std::shared_ptr<ByzShared> shared)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        innerRounds_(innerRounds),
        pk_(std::move(pk)),
        view_(pk_->view(self)),
        f_(std::max(1, f)),
        sched_(sched),
        shared_(std::move(shared)),
        isRoot_(self == pk_->root),
        innerSlots_(g, self),
        votes_(view_.degree(), SlotSchedule{pk_->eta, kByzRho}),
        correction_(*pk_, SlotSchedule{pk_->eta, kByzRho}, shapeFor(f_),
                    std::move(codec), ShareBundle::OnePerHop,
                    ChildRule::AsListed) {
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
    if (p.r == 0) startIteration();
    correction_.send(view_, p.r, isRoot_, out, [&](const Correction& mc) {
      return dominatingMismatches(mc, p.j);
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
    // Patch estimates (Step 3 of the iteration) at the block's end.
    if (!correction_.receive(view_, p.r, in, votes_, self_, isRoot_,
                             [&](int idx, const DecodedKey& dec) {
                               if (dec.chunk > kAbsentChunk) return;
                               estKey_[static_cast<std::size_t>(idx)] =
                                   encodeKey(dec.sender, self_, dec.chunk,
                                             dec.payload);
                             }))
      return;
    if (shared_) recordMismatches(p.simRound, p.j + 1);
    if (p.j == sched_.z - 1) deliverToInner(p);
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  // --- round arithmetic ----------------------------------------------------

  [[nodiscard]] Pos position(int round) const {
    const int g = round - 1;
    const int offset = g % sched_.roundsPerSimRound;
    const int q = std::max(0, offset - 1);  // round within the iterations
    return {g / sched_.roundsPerSimRound + 1, offset == 0,
            q / sched_.roundsPerIteration, q % sched_.roundsPerIteration};
  }

  /// The correction mode's sketch: one sparse-recovery sketch or t
  /// l0-samplers per tree.
  [[nodiscard]] static typename Sketch::Shape shapeFor(int f) {
    if constexpr (kSparse)
      return {static_cast<std::size_t>(kSparseSlack * 4 * f),
              static_cast<std::size_t>(kSparseRows)};
    else
      return {static_cast<std::size_t>(kTSketches), kSketchLevels};
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
    if (shared_) recordMismatches(p.simRound, 0);
  }

  void recordMismatches(int simRound, int afterIteration) {
    // Instrumentation for Lemma 3.8: count this node's wrong estimates.
    auto& bj = shared_->bj;
    while (static_cast<int>(bj.size()) < simRound)
      bj.emplace_back(static_cast<std::size_t>(sched_.z + 1), 0);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const auto truth = shared_->sentTruth.find({nbs[i].node, self_});
      if (truth == shared_->sentTruth.end()) continue;
      if (estKey_[i] != truth->second)
        ++bj[static_cast<std::size_t>(simRound - 1)]
            [static_cast<std::size_t>(afterIteration)];
    }
  }

  // --- iteration lifecycle ---------------------------------------------------

  /// Starts the iteration's correction block (the root draws every tree's
  /// sketch seed), drops the shares held from the last one and refills the
  /// stream entries (capacity kept) from the exchange key tables; both
  /// were fully rewritten by this sim round's exchange.
  void startIteration() {
    correction_.start(isRoot_, rng_);
    correction_.forget();
    StreamEntries& entries = correction_.entries();
    const std::size_t deg = g_.degree(self_);
    for (std::size_t i = 0; i < deg; ++i) {
      entries.push_back({sentKey_[i], +1});
      entries.push_back({estKey_[i], -1});
    }
  }

  // --- root: dominating mismatches -------------------------------------------

  /// Root, at the start of the ECC block: the DM keys of iteration `j`.
  /// SparseOneShot takes the majority support across trees; L0Iterative
  /// (Section 3.2) the observed mismatches with support >= Delta_j across
  /// all trees' merged l0-sketches.
  [[nodiscard]] std::vector<std::uint64_t> dominatingMismatches(
      const Correction& mc, int j) const {
    if constexpr (kSparse) {
      return recoverMajority(mc);
    } else {
      std::map<std::uint64_t, std::pair<int, bool>> supp;  // (count, > 0)
      for (int t = 0; t < pk_->k; ++t) {
        for (const auto& s : mc.merged(t).samplers()) {
          const auto r = s.query();
          if (!r.has_value()) continue;
          auto& [count, positive] = supp[r->key];
          ++count;
          positive = positive || r->frequency > 0;
        }
      }
      // Threshold Delta_j (Eq. 8 with tuned constants; see kTheta).
      const double dj = kTheta * std::pow(2.0, j + 1) *
                        static_cast<double>(pk_->k) * kTSketches /
                        static_cast<double>(f_);
      const int delta = std::max(1, static_cast<int>(std::ceil(dj)));
      std::vector<std::uint64_t> dm;  // sorted, as supp is
      for (const auto& [key, s] : supp)
        if (s.first >= delta && s.second) dm.push_back(key);
      return dm;
    }
  }

  // --- end of iteration --------------------------------------------------------

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
  ByzSchedule sched_;
  std::shared_ptr<ByzShared> shared_;
  bool isRoot_;
  bool done_ = false;

  /// Exchange-step surfaces, adjacency-indexed and rewritten in place each
  /// sim round: the neighbor slots capture the inner algorithm's sends and
  /// later redeliver the corrected receipts, the key tables hold my sends /
  /// estimated receipts in key form, and exchMsg_ is the reused wire
  /// buffer.
  sim::NeighborSlots innerSlots_;
  Msg exchMsg_;
  std::vector<std::uint64_t> sentKey_;  // [nbIndex] my round-i sends
  std::vector<std::uint64_t> estKey_;   // [nbIndex] estimates of receipts

  // The tree stages of one iteration (docs/architecture.md section 7.1).
  ArcVotes votes_;
  Correction correction_;
};

/// The compiled nodes over sketch type `Sketch`, sharing `codec`'s codec.
template <class Sketch>
auto nodesOf(const Graph& g, const sim::Algorithm& inner,
             std::shared_ptr<const PackingKnowledge> pk, int f,
             std::shared_ptr<SharedDmCodec> codec, ByzSchedule sched,
             std::shared_ptr<ByzShared> shared) {
  return [&g, inner, pk, f, codec, sched, shared](NodeId v, const Graph&,
                                                  util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0xb12));
    return std::make_unique<ByzNode<Sketch>>(v, g, rng.split(0x3a7),
                                             std::move(innerNode),
                                             inner.rounds, pk, f, codec->get(),
                                             sched, shared);
  };
}

}  // namespace

ByzSchedule ByzSchedule::compute(const PackingKnowledge& pk, int innerRounds,
                                 int f, const ByzOptions& opts) {
  ByzSchedule s;
  const int fEff = std::max(1, f);
  s.z = opts.correction == CorrectionMode::SparseOneShot
            ? 1  // one-shot recovery (Section 1.2.2)
            : static_cast<int>(std::ceil(std::log2(2.0 * fEff))) + 2;
  const int dmCap = dmCapFor(opts, fEff);
  const std::int64_t steps =
      correctionSteps(pk.k, pk.depthBound, dmCap, ShareBundle::OnePerHop);
  const std::int64_t perIteration =
      std::int64_t{SlotSchedule{pk.eta, kByzRho}.roundsPerStep()} * steps;
  // Checked first: every count below is at most roundsPerSimRound.
  s.roundsPerSimRound = compiledRounds(1 + s.z * perIteration);
  s.roundsPerIteration = static_cast<int>(perIteration);
  s.chunks = static_cast<int>(DmCodec::chunksFor(pk.k, dmCap));
  s.sketchSteps = correctionSketchSteps(pk.depthBound);
  s.eccSteps = static_cast<int>(steps) - s.sketchSteps;
  s.totalRounds = std::int64_t{innerRounds} * s.roundsPerSimRound;
  return s;
}

sim::Algorithm compileByzantineTree(const graph::Graph& g,
                                    const sim::Algorithm& inner,
                                    std::shared_ptr<const PackingKnowledge> pk,
                                    int f, ByzOptions opts,
                                    std::shared_ptr<ByzShared> shared) {
  const ByzSchedule sched = ByzSchedule::compute(*pk, inner.rounds, f, opts);
  auto codec =
      std::make_shared<SharedDmCodec>(pk->k, dmCapFor(opts, std::max(1, f)));
  sim::Algorithm out;
  out.rounds = compiledRounds(sched.totalRounds);
  out.congestion = 0;
  if (opts.correction == CorrectionMode::SparseOneShot)
    out.makeNode = nodesOf<sketch::SparseRecovery>(g, inner, pk, f, codec,
                                                   sched, shared);
  else
    out.makeNode =
        nodesOf<sketch::L0Bundle>(g, inner, pk, f, codec, sched, shared);
  return out;
}

}  // namespace mobile::compile

#include "compile/rewind_compiler.h"

#include <algorithm>
#include <map>

#include "compile/tree_stages.h"
#include "hash/fingerprint.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::NodeState;
using sim::Outbox;

namespace {

// Transcript symbols: 33-bit message space plus two sentinels.
constexpr std::uint64_t kPresentBit = 1ULL << 32;
constexpr std::uint64_t kAbsentSym = 1ULL << 33;
constexpr std::uint64_t kBottomSym = 1ULL << 34;  // "terminated" (padding)

std::uint64_t symbolOf(bool present, std::uint64_t payload) {
  return present ? (kPresentBit | (payload & 0xffffffffULL)) : kAbsentSym;
}

/// M_i(u,v) of Round-Initialization.
struct Tuple {
  std::uint64_t m = kAbsentSym;
  std::uint64_t r = 0;
  std::uint64_t hash = 0;
  std::uint64_t len = 0;
};

/// The tuple's wire words, in order.
constexpr std::uint64_t Tuple::*kTupleWords[] = {&Tuple::m, &Tuple::r,
                                                 &Tuple::hash, &Tuple::len};

/// 32-bit chunk c of a tuple's wire words: one stream element of the
/// correction sketches.
std::uint64_t chunkOf(const Tuple& t, int c) {
  return (t.*kTupleWords[c / 2] >> (32 * (c % 2))) & 0xffffffffULL;
}

void setChunk(Tuple& t, int c, std::uint64_t v) {
  std::uint64_t& w = t.*kTupleWords[c / 2];
  const int shift = 32 * (c % 2);
  w = (w & ~(0xffffffffULL << shift)) | ((v & 0xffffffffULL) << shift);
}

constexpr int kChunksPerTuple = 8;

/// Rows per correction sparse-recovery sketch.
constexpr int kSketchRows = 5;

/// The correction capacity d = 4f of Lemma 4.2.
int correctionCap(int f) { return 4 * std::max(1, f); }

/// DM keys the correction transports: 8d, the sent and received chunk
/// entries of d corrupted tuples.
int dmCapOf(int f) { return 8 * correctionCap(f); }

class RewindNode final : public NodeState {
 public:
  RewindNode(NodeId self, const Graph& g, util::Rng rng, sim::Algorithm inner,
             std::shared_ptr<const PackingKnowledge> pk,
             std::shared_ptr<const DmCodec> codec, int f, RewindOptions opts,
             RewindSchedule sched, std::shared_ptr<RewindShared> shared)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        pk_(std::move(pk)),
        view_(pk_->view(self)),
        sched_(sched),
        slots_{pk_->eta, opts.rho},
        isRoot_(self == pk_->root),
        shared_(std::move(shared)),
        replaySlots_(g, self),
        votes_(view_.degree(), slots_),
        correction_(*pk_, slots_,
                    {static_cast<std::size_t>(16 * correctionCap(f)),
                     static_cast<std::size_t>(kSketchRows)},
                    std::move(codec), ShareBundle::AllChunks,
                    ChildRule::ParentExcluded),
        consUp_(pk_->depthBound, ChildRule::ParentExcluded),
        verdicts_(ChildRule::ParentExcluded, 2) {
    for (const auto& nb : g_.neighbors(self_)) {
      inTrans_[nb.node] = {};
      outTrans_[nb.node] = {};
    }
    // Fixed-shape tuple tables and vote slots, indexed by adjacency
    // position and rewritten in place each phase -- the compile/baselines.cc
    // no-alloc idiom.
    const std::size_t deg = g_.degree(self_);
    sendTuple_.resize(deg);
    recvTuple_.resize(deg);
    initVotes_.resize(deg);
  }

  void send(int round, Outbox& out) override {
    const int o = (round - 1) % sched_.roundsPerGlobal;
    if (o == 0) startGlobalRound();
    if (o < sched_.initRounds) {
      const auto& nbs = g_.neighbors(self_);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        sim::resetScratch(scratch_);
        for (const auto word : kTupleWords) scratch_.push(sendTuple_[i].*word);
        out.to(nbs[i].node, scratch_);
      }
      return;
    }
    if (o < sched_.initRounds + sched_.correctionRounds) {
      const int cr = o - sched_.initRounds;
      if (cr == 0) startCorrection();
      correction_.send(view_, cr, isRoot_, out, recoverMajority);
      return;
    }
    consensusSend(o - sched_.initRounds - sched_.correctionRounds, out);
  }

  void receive(int round, const Inbox& in) override {
    const int o = (round - 1) % sched_.roundsPerGlobal;
    if (o < sched_.initRounds) {
      const auto& nbs = g_.neighbors(self_);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        if (o == 0) initVotes_[i].reset();
        initVotes_[i].add(in.from(nbs[i].node));
      }
      if (o == sched_.initRounds - 1) {
        for (std::size_t i = 0; i < nbs.size(); ++i) {
          const Msg& m = initVotes_[i].winner();
          for (std::size_t w = 0; w < 4; ++w)
            recvTuple_[i].*kTupleWords[w] = m.atOr(w, 0);
        }
      }
      return;
    }
    if (o < sched_.initRounds + sched_.correctionRounds) {
      correction_.receive(view_, o - sched_.initRounds, in, votes_, self_,
                          isRoot_, [&](int idx, const DecodedKey& dec) {
                            setChunk(recvTuple_[static_cast<std::size_t>(idx)],
                                     static_cast<int>(dec.chunk), dec.payload);
                          });
      return;
    }
    consensusReceive(o - sched_.initRounds - sched_.correctionRounds, in);
    if (o == sched_.roundsPerGlobal - 1) {
      finishGlobalRound();
      if (round == sched_.totalRounds) finalize();
    }
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override { return output_; }

 private:
  // --- inner replay ---------------------------------------------------------

  /// A fresh (deterministic) inner node replayed over the first `rounds`
  /// symbols of the estimated incoming transcripts; its sends land in the
  /// reused slots and are discarded before the same slots redeliver.
  [[nodiscard]] std::unique_ptr<NodeState> replay(int rounds) {
    auto node = inner_.makeNode(self_, g_, util::Rng(0x5e9));
    const auto& nbs = g_.neighbors(self_);
    for (int i = 1; i <= rounds; ++i) {
      replaySlots_.begin();
      node->send(i, replaySlots_);
      replaySlots_.begin();
      for (std::size_t j = 0; j < nbs.size(); ++j) {
        const auto& trans = inTrans_.at(nbs[j].node);
        if (static_cast<std::size_t>(i - 1) >= trans.size()) continue;
        const std::uint64_t sym = trans[static_cast<std::size_t>(i - 1)];
        if (sym & kPresentBit)
          replaySlots_.slot(j).push(sym & 0xffffffffULL);
      }
      node->receive(i, replaySlots_);
    }
    return node;
  }

  [[nodiscard]] std::size_t gammaLen() const {
    return outTrans_.empty() ? 0 : outTrans_.begin()->second.size();
  }

  /// Refills sendTuple_ in place; m is the replayed inner node's message
  /// for round gamma + 1 (bottom once the inner algorithm has ended).
  /// recvTuple_ is rewritten at the end of the init phase, before anything
  /// reads it.
  void startGlobalRound() {
    const int gamma = static_cast<int>(gammaLen());
    const bool running = gamma < inner_.rounds;
    const auto node = replay(std::min(gamma, inner_.rounds));
    replaySlots_.begin();
    if (running) node->send(gamma + 1, replaySlots_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const Msg& cm = replaySlots_.slot(i);
      Tuple t;
      t.m = running ? symbolOf(cm.present, cm.atOr(0, 0)) : kBottomSym;
      t.r = rng_.next();
      t.hash =
          hash::TranscriptFingerprint(t.r).hash(outTrans_.at(nbs[i].node));
      t.len = gammaLen();
      sendTuple_[i] = t;
    }
  }

  // --- correction phase (Lemma 4.2) ------------------------------------------

  /// Starts the correction block: the tuples are final once the init
  /// phase is decoded, so the chunked stream entries are built once, and
  /// the root draws every tree's sketch seed.  Held ECC shares are never
  /// forgotten: a node that misses this round's shares forwards the last
  /// ones it held.
  void startCorrection() {
    correction_.start(isRoot_, rng_);
    StreamEntries& entries = correction_.entries();
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const NodeId u = nbs[i].node;
      const Tuple& s = sendTuple_[i];
      const Tuple& r = recvTuple_[i];
      for (int c = 0; c < kChunksPerTuple; ++c) {
        const auto cu = static_cast<unsigned>(c);
        entries.push_back({encodeKey(self_, u, cu, chunkOf(s, c)), +1});
        entries.push_back({encodeKey(u, self_, cu, chunkOf(r, c)), -1});
      }
    }
  }

  // --- consensus phase (Rewind-If-Error) -------------------------------------

  /// (GoodState(v), gamma(v)): fixed for the whole consensus phase, since
  /// recvTuple_ and the transcripts change only outside it.
  [[nodiscard]] ConsensusUpcast::Vote localVote() const {
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const Tuple& t = recvTuple_[i];
      const auto& trans = inTrans_.at(nbs[i].node);
      if (t.len != trans.size() ||
          hash::TranscriptFingerprint(t.r).hash(trans) != t.hash)
        return {0, gammaLen()};
    }
    return {1, gammaLen()};
  }

  // Steps 1..D are the up-wave of the subtree aggregates; steps D+1..2D+1
  // flood the root's per-tree verdict back down.

  void consensusSend(int cr, Outbox& out) {
    const int D = pk_->depthBound;
    const SlotPos h = slots_.at(cr);
    if (cr == 0) {
      consUp_.start();
      verdicts_.start(pk_->k);
      ownVote_ = localVote();
    }
    if (isRoot_ && h.step == D + 1 && h.rep == 0 && h.slot == 0) {
      for (int t = 0; t < pk_->k; ++t) {
        const auto [good, len] = consUp_.subtree(t, ownVote_);
        verdicts_.seed(t, {good, len});
      }
    }
    sendScheduled(view_, h.slot, out, [&](int tree, NodeId to) -> const Msg* {
      if (h.step > D) return verdicts_.send(view_, tree, to, h.step - D);
      if (!consUp_.sends(view_, tree, to, h.step)) return nullptr;
      const auto [good, len] = consUp_.subtree(tree, ownVote_);
      return &sim::resetScratch(hopScratch()).push(good).push(len);
    });
  }

  void consensusReceive(int cr, const Inbox& in) {
    const int D = pk_->depthBound;
    const SlotPos h = slots_.at(cr);
    if (h.step > D)
      votes_.receive(view_, h, in, verdicts_, h.step - D);
    else
      votes_.receive(view_, h, in, consUp_, h.step);
  }

  void finishGlobalRound() {
    // Majority verdict across the trees whose verdict arrived (all of them
    // at the root).
    std::map<std::pair<std::uint64_t, std::uint64_t>, int> votes;
    for (int t = 0; t < pk_->k; ++t)
      if (verdicts_.has(t))
        ++votes[{verdicts_.word(t, 0), verdicts_.word(t, 1)}];
    const std::pair<std::uint64_t, std::uint64_t> verdict =
        votes.empty() ? std::pair{std::uint64_t{0}, gammaLen()}
                      : mostVoted(votes);
    // Rewind-if-error update (Section 4.1).
    if (verdict.first == 1) {
      const auto& nbs = g_.neighbors(self_);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        inTrans_[nbs[i].node].push_back(recvTuple_[i].m);
        outTrans_[nbs[i].node].push_back(sendTuple_[i].m);
      }
    } else if (gammaLen() == verdict.second && gammaLen() > 0) {
      for (const auto& nb : g_.neighbors(self_)) {
        inTrans_[nb.node].pop_back();
        outTrans_[nb.node].pop_back();
      }
    }
    // Instrumentation: potential Phi (Eq. 10).
    if (shared_ && !shared_->gamma.empty()) {
      if (self_ == 0) {
        shared_->curMinPrefix2 = 1L << 40;
        shared_->curMaxLen = 0;
        shared_->scratchInit = true;
      }
      for (const auto& [u, trans] : inTrans_) {
        const auto it = shared_->gamma.find({u, self_});
        if (it == shared_->gamma.end()) continue;
        std::size_t pref = 0;
        while (pref < trans.size() && pref < it->second.size() &&
               trans[pref] == it->second[pref])
          ++pref;
        shared_->curMinPrefix2 =
            std::min(shared_->curMinPrefix2, 2L * static_cast<long>(pref));
        shared_->curMaxLen = std::max(
            shared_->curMaxLen, static_cast<long>(trans.size()));
      }
      if (self_ == g_.nodeCount() - 1 && shared_->scratchInit) {
        shared_->phi.push_back(shared_->curMinPrefix2 - shared_->curMaxLen);
        shared_->networkGoodState.push_back(static_cast<int>(verdict.first));
      }
    }
  }

  /// Output: the inner node replayed over the estimated transcripts.
  void finalize() {
    output_ = replay(inner_.rounds)->output();
    done_ = true;
  }

  // --- members ---------------------------------------------------------------

  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  sim::Algorithm inner_;
  std::shared_ptr<const PackingKnowledge> pk_;
  NodeTreeView view_;
  RewindSchedule sched_;
  SlotSchedule slots_;
  bool isRoot_;
  std::shared_ptr<RewindShared> shared_;

  std::map<NodeId, std::vector<std::uint64_t>> inTrans_;   // pi~(u, v)
  std::map<NodeId, std::vector<std::uint64_t>> outTrans_;  // pi(v, u)
  /// Adjacency-indexed tuple tables and init-phase vote slots, rewritten
  /// in place every global round.
  std::vector<Tuple> sendTuple_, recvTuple_;
  std::vector<VoteSlot> initVotes_;
  Msg scratch_;  // reused init-phase send buffer
  /// Replay surface, reused across global rounds: it captures the
  /// replayed node's sends, then redelivers the estimated transcripts.
  sim::NeighborSlots replaySlots_;

  // The tree stages (docs/architecture.md section 7.1).
  ArcVotes votes_;  // shared by the correction and consensus phases
  MismatchCorrection<sketch::SparseRecovery> correction_;
  ConsensusUpcast consUp_;
  ConsensusUpcast::Vote ownVote_{};  // localVote() of this consensus phase
  TreeFlood verdicts_;  // (good, len) per tree

  bool done_ = false;
  std::uint64_t output_ = 0;
};

}  // namespace

RewindSchedule rewindSchedule(const PackingKnowledge& pk, int innerRounds,
                              int f, const RewindOptions& opts) {
  RewindSchedule s;
  const SlotSchedule slots{pk.eta, opts.rho};
  const int D = pk.depthBound;
  s.globalRounds = std::int64_t{opts.multiplier} * innerRounds;
  s.initRounds = 2 * (D + 2);
  // Every chunk's share rides in one hop message: a single down-wave.
  s.correctionRounds = slots.blockRounds(static_cast<int>(
      correctionSteps(pk.k, D, dmCapOf(f), ShareBundle::AllChunks)));
  s.consensusRounds = slots.blockRounds(2 * D + 1);
  s.roundsPerGlobal = s.initRounds + s.correctionRounds + s.consensusRounds;
  s.totalRounds = s.globalRounds * s.roundsPerGlobal;
  return s;
}

sim::Algorithm compileRewind(const graph::Graph& g, const sim::Algorithm& inner,
                             std::shared_ptr<const PackingKnowledge> pk, int f,
                             RewindOptions opts,
                             std::shared_ptr<RewindShared> shared) {
  const RewindSchedule sched = rewindSchedule(*pk, inner.rounds, f, opts);
  sim::Algorithm out;
  out.rounds = compiledRounds(sched.totalRounds);
  out.congestion = 0;
  auto codec = std::make_shared<SharedDmCodec>(pk->k, dmCapOf(f));
  out.makeNode = [&g, inner, pk, codec, f, opts, sched, shared](
                     NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<RewindNode>(v, g, rng.split(0x4e), inner, pk,
                                        codec->get(), f, opts, sched, shared);
  };
  return out;
}

void computeGamma(const graph::Graph& g, const sim::Algorithm& inner,
                  std::uint64_t seed, int paddedLength, RewindShared* shared) {
  util::Rng master(seed);
  std::vector<std::unique_ptr<NodeState>> nodes;
  for (NodeId v = 0; v < g.nodeCount(); ++v)
    nodes.push_back(
        inner.makeNode(v, g, master.split(static_cast<std::uint64_t>(v))));
  shared->gamma.clear();
  for (NodeId v = 0; v < g.nodeCount(); ++v)
    for (const auto& nb : g.neighbors(v)) shared->gamma[{v, nb.node}] = {};
  // Per node: the slots its round-i sends land in, and the slots its
  // round-i receipts are gathered into from the senders' slots.
  std::vector<sim::NeighborSlots> sent, received;
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    sent.emplace_back(g, v);
    received.emplace_back(g, v);
  }
  for (int i = 1; i <= paddedLength; ++i) {
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      auto& out = sent[static_cast<std::size_t>(v)];
      out.begin();
      if (i <= inner.rounds) nodes[static_cast<std::size_t>(v)]->send(i, out);
      const auto& nbs = g.neighbors(v);
      for (std::size_t j = 0; j < nbs.size(); ++j) {
        const Msg& m = out.slot(j);
        shared->gamma[{v, nbs[j].node}].push_back(
            i > inner.rounds ? kBottomSym : symbolOf(m.present, m.atOr(0, 0)));
      }
    }
    if (i <= inner.rounds) {
      for (NodeId v = 0; v < g.nodeCount(); ++v) {
        auto& in = received[static_cast<std::size_t>(v)];
        const auto& nbs = g.neighbors(v);
        for (std::size_t j = 0; j < nbs.size(); ++j)
          sim::assignMsg(in.slot(j),
                         sent[static_cast<std::size_t>(nbs[j].node)].from(v));
        nodes[static_cast<std::size_t>(v)]->receive(i, in);
      }
    }
  }
}

}  // namespace mobile::compile
